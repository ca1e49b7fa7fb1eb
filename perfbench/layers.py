"""The probes of a traced run and the per-layer metrics made from them.

Span names are ``<module>.<function>``.  Times are summed over the
traced pass: ``*_s`` is the inclusive time of a function, ``*_self_s``
its time minus the probed functions it called.  Counters are filled at
the same boundaries from each call's arguments or result.
"""

from __future__ import annotations

from tracer import Probe


def _length(name):
    return lambda args, kwargs, result: {name: len(result)}


def _support(args, kwargs, law):
    return {"sampler.support_size": len(law.result.distribution)}


def _trials(args, kwargs, report):
    return {"sampler.mc_trials": report.trials}


def _deficient(args, kwargs, records):
    return {"augment.deficient_vertices": sum(1 for r in records if r.deficient)}


def _certificate(args, kwargs, result):
    cert = result[1]
    return {"fractional_lp.cert_sets": len(cert.sets),
            "fractional_lp.cert_distinct_sets": len(set(cert.sets)),
            "fractional_lp.cert_N": cert.N}


PROBES = (
    Probe("fracchrom.two_factor", "minimal_small_cuts", _length("two_factor.cuts_found")),
    Probe("fracchrom.two_factor", "enumerate_perfect_matchings",
          _length("two_factor.matchings_found")),
    Probe("fracchrom.two_factor", "select_two_factor"),
    # the law's computation on a cache miss; the public entry points
    # below reach it through the module-level cache
    Probe("fracchrom.sampler", "_compute_law", _support),
    Probe("fracchrom.sampler", "event_probability"),
    Probe("fracchrom.sampler", "forces"),
    Probe("fracchrom.sampler", "admissible"),
    Probe("fracchrom.sampler", "exact_q"),
    Probe("fracchrom.sampler", "monte_carlo", _trials),
    Probe("fracchrom.sampler", "run_phases_1_4"),
    Probe("fracchrom.augment", "deficiency_report", _deficient),
    Probe("fracchrom.augment", "build_phase5_plan"),
    Probe("fracchrom.augment", "exact_phase5_distribution"),
    Probe("fracchrom.augment", "run_phase5"),
    Probe("fracchrom.templates", "builtin"),
    Probe("fracchrom.templates", "sigma_library"),
    Probe("fracchrom.templates", "sensitive_pairs"),
    Probe("fracchrom.templates", "q_upper"),
    Probe("fracchrom.templates", "lemma4_lower_bound"),
    Probe("fracchrom.fractional_lp", "maximal_independent_sets",
          _length("fractional_lp.mis_columns")),
    Probe("fracchrom.fractional_lp", "chi_f_exact"),
    Probe("fracchrom.fractional_lp", "weighting_to_multiset"),
    Probe("fracchrom.fractional_lp", "verify_certificate"),
    Probe("fracchrom.fractional_lp", "chi_f_upper_subcubic", _certificate),
    Probe("fracchrom.cli", "run"),
)

_EVENTS = ("sampler.event_probability", "sampler.forces",
           "sampler.admissible", "sampler.exact_q")


def layer_metrics(totals: dict, counts: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``."""

    def total(*names):
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def own(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    mc_s = total("sampler.monte_carlo")
    mc_rate = counts.get("sampler.mc_trials", 0) / mc_s if mc_s else 0.0
    return {
        "two_factor.cuts_s": (total("two_factor.minimal_small_cuts"), "s"),
        "two_factor.cuts_calls": (calls("two_factor.minimal_small_cuts"), "count"),
        "two_factor.cuts_found": (counts.get("two_factor.cuts_found", 0), "count"),
        "two_factor.matchings_s": (total("two_factor.enumerate_perfect_matchings"), "s"),
        "two_factor.matchings_found": (counts.get("two_factor.matchings_found", 0), "count"),
        "two_factor.select_self_s": (own("two_factor.select_two_factor"), "s"),
        "sampler.law_s": (total("sampler._compute_law"), "s"),
        "sampler.law_calls": (calls("sampler._compute_law"), "count"),
        "sampler.support_size": (counts.get("sampler.support_size", 0), "count"),
        "sampler.event_s": (own(*_EVENTS), "s"),
        "sampler.event_calls": (calls(*_EVENTS), "count"),
        "sampler.mc_s": (mc_s, "s"),
        "sampler.mc_trials_per_s": (mc_rate, "1/s"),
        "sampler.replay_s": (total("sampler.run_phases_1_4"), "s"),
        "sampler.replay_calls": (calls("sampler.run_phases_1_4"), "count"),
        "augment.phase5_s": (total("augment.run_phase5"), "s"),
        "augment.phase5_calls": (calls("augment.run_phase5"), "count"),
        "augment.report_s": (total("augment.deficiency_report"), "s"),
        "augment.deficient_vertices": (counts.get("augment.deficient_vertices", 0), "count"),
        "augment.plan_s": (total("augment.build_phase5_plan"), "s"),
        "augment.exact5_self_s": (own("augment.exact_phase5_distribution"), "s"),
        "templates.build_s": (own("templates.builtin", "templates.sigma_library"), "s"),
        "templates.bound_s": (own("templates.sensitive_pairs", "templates.q_upper",
                                  "templates.lemma4_lower_bound"), "s"),
        "templates.candidates": (counts.get("templates.candidates", 0), "count"),
        "fractional_lp.mis_s": (total("fractional_lp.maximal_independent_sets"), "s"),
        "fractional_lp.mis_columns": (counts.get("fractional_lp.mis_columns", 0), "count"),
        "fractional_lp.lp_s": (own("fractional_lp.chi_f_exact"), "s"),
        "fractional_lp.multiset_s": (total("fractional_lp.weighting_to_multiset"), "s"),
        "fractional_lp.verify_s": (total("fractional_lp.verify_certificate"), "s"),
        "fractional_lp.verify_calls": (calls("fractional_lp.verify_certificate"), "count"),
        "fractional_lp.certify_self_s": (own("fractional_lp.chi_f_upper_subcubic"), "s"),
        "fractional_lp.cert_sets": (counts.get("fractional_lp.cert_sets", 0), "count"),
        "fractional_lp.cert_distinct_sets": (
            counts.get("fractional_lp.cert_distinct_sets", 0), "count"),
        "fractional_lp.cert_N": (counts.get("fractional_lp.cert_N", 0), "count"),
        "cli.self_s": (own("cli.run"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
