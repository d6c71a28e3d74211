"""qmeasure's layers as the traced run sees them, and the per-layer metrics.

Each layer is entered through the names other modules bind it under. The
tracer rebinds exactly those names, so a span covers one call into a layer
from the module above it (or from the benchmark itself).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from statistics import fmean

from qmeasure import analytics, cli, core, ensembles, stats, verify

from tracing import Span, Target, busy_time, self_times

LAYERS = ("ensembles", "core", "stats", "analytics", "special", "verify", "cli")


def _arg(index: int, name: str):
    return lambda args, kwargs: int(args[index] if len(args) > index else kwargs[name])


def _rows(args, kwargs) -> int:
    return len(args[0])


def _one(args, kwargs) -> int:
    return 1


def targets() -> list[Target]:
    t = []
    for owner in (ensembles, cli, stats, verify):
        t.append(Target(owner, "sample_spectra", "ensembles", "ensembles.sample_spectra",
                        _arg(1, "count"), rng=True))
    for owner in (ensembles, cli):
        for attr in ("induced_density_matrix", "product_measure_density_matrix",
                     "bures_density_matrix"):
            t.append(Target(owner, attr, "ensembles", f"ensembles.{attr}", _one, rng=True))
    # the direct-draw routes the battery imports by name
    t.append(Target(verify, "_purification_spectra", "ensembles",
                    "ensembles._purification_spectra", _arg(2, "count"), rng=True))
    t.append(Target(verify, "_pure_state_moduli", "ensembles",
                    "ensembles._pure_state_moduli", _arg(1, "count"), rng=True))

    t.append(Target(ensembles, "project_hs", "core", "core.project_hs"))
    t.append(Target(core.DensityMatrix, "__post_init__", "core", "core.DensityMatrix"))
    t.append(Target(core.Spectrum, "__post_init__", "core", "core.Spectrum"))

    for owner in (stats, cli, verify):
        t.append(Target(owner, "mc_estimate", "stats", "stats.mc_estimate", _arg(2, "samples")))
    for owner in (cli, verify):
        t.append(Target(owner, "ternary_histogram", "stats", "stats.ternary_histogram", _rows))
    for owner in (stats, verify):
        t.append(Target(owner, "spectrum_functional", "stats", "stats.spectrum_functional",
                        _rows))
    t.append(Target(cli, "participation_ratio", "stats", "stats.participation_ratio"))
    for attr in ("numeric_cdf", "ks_test", "two_sample_ks", "chi2_test"):
        t.append(Target(verify, attr, "stats", f"stats.{attr}"))

    # cli and verify reach analytics as ``analytics.<name>``
    for attr in ("purity_induced_exact", "hs_mean_entropy_exact", "hs_moment_exact",
                 "hs_moment_quadrature", "n2_reference_means", "radial_density_n2",
                 "radial_cdf_n2", "entanglement_cdf_n2", "log_norm_constant",
                 "bures_norm_constant", "uniform_rescale_cdf_n2"):
        t.append(Target(analytics, attr, "analytics", f"analytics.{attr}"))
    for attr in ("gauss_laguerre_nodes", "laguerre_sum_sq", "log_gamma"):
        t.append(Target(analytics, attr, "special", f"special.{attr}"))

    t.append(Target(verify, "run_criterion", "verify", "verify.run_criterion"))
    t.append(Target(cli, "main", "cli", "cli.main"))
    # table emission, for cli.emit_bytes_per_s
    t.append(Target(cli, "_emit_table", "cli", "cli.emit"))
    return t


@dataclass
class TracedPass:
    """Spans of one traced pass, and what each workload call (by call id) was."""

    spans: list[Span]
    keys: dict[int, str]          # call id -> call key (case, command, criterion)
    probe_ids: set[int]
    counters: dict = field(default_factory=dict)

    def calls_of(self, key: str) -> set[int]:
        return {cid for cid, k in self.keys.items() if k == key}

    def spans_named(self, name: str, call_ids=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (call_ids is None or s.call_id in call_ids)]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_totals(tp: TracedPass) -> dict:
    own = self_times(tp.spans)
    busy, calls, failed = defaultdict(float), defaultdict(int), defaultdict(int)
    for s in tp.spans:
        busy[s.layer] += own[s.span_id]
        calls[s.layer] += 1
        failed[s.layer] += s.failed
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (busy[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.failed"] = (failed[layer], "count")
    return out


def ensemble_case(tp: TracedPass, key: str) -> tuple[float, float]:
    """(samples per second, RNG words per requested sample) of a case's calls
    into ensembles; a call that raised delivers no samples."""
    ids = tp.calls_of(key)
    spans = [s for s in tp.spans if s.layer == "ensembles" and s.call_id in ids]
    delivered = sum(s.size or 0 for s in spans if not s.failed)
    asked = sum(s.size or 0 for s in spans)
    words = sum(s.rng_words or 0 for s in spans)
    return _ratio(delivered, busy_time(spans)), _ratio(words, asked)



def per_layer_metrics(passes: dict[str, TracedPass], selected: str, overhead_s: float,
                      cold: dict) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    m = dict(layer_totals(passes[selected]))
    spectra, rejection = passes["spectra"], passes["rejection"]
    cli_pass, battery = passes["cli"], passes["battery"]

    for tp in (spectra, rejection):
        for key in dict.fromkeys(tp.keys.values()):
            rate, words = ensemble_case(tp, key)
            m[f"ensembles.samples_per_s.{key}"] = (rate, "1/s")
            m[f"ensembles.rng_words_per_sample.{key}"] = (words, "words/sample")
    for key in dict.fromkeys(cli_pass.keys[cid] for cid in cli_pass.probe_ids):
        rate, words = ensemble_case(cli_pass, key)
        m[f"ensembles.matrices_per_s.{key}"] = (rate, "1/s")
        m[f"ensembles.rng_words_per_sample.{key}"] = (words, "words/sample")

    sf = spectra.spans_named("stats.spectrum_functional")
    m["stats.spectrum_functional.rows_per_s"] = (
        _ratio(sum(s.size for s in sf), sum(s.duration for s in sf)), "rows/s")
    for key in ("hs_4_entropy_w1", "hs_4_entropy_w2"):
        mc = spectra.spans_named("stats.mc_estimate", spectra.calls_of(key))
        m[f"stats.mc_estimate.samples_per_s.{key[-2:]}"] = (
            _ratio(sum(s.size for s in mc), sum(s.duration for s in mc)), "1/s")
    th = cli_pass.spans_named("stats.ternary_histogram") + battery.spans_named(
        "stats.ternary_histogram")
    m["stats.ternary_histogram.rows_per_s"] = (
        _ratio(sum(s.size for s in th), sum(s.duration for s in th)), "rows/s")
    m["stats.numeric_cdf.busy_s"] = (
        sum(s.duration for s in battery.spans_named("stats.numeric_cdf")), "s")

    entropy = cli_pass.spans_named("analytics.hs_mean_entropy_exact")
    m["analytics.hs_mean_entropy_exact.s"] = (
        fmean(s.duration for s in entropy) if entropy else 0.0, "s")
    m["analytics.bures_norm_constant.cold_s.n3"] = (cold["bures_norm_constant_n3"], "s")
    m["special.gauss_laguerre_nodes.cold_s"] = (cold["gauss_laguerre_nodes_1024"], "s")

    for key in dict.fromkeys(battery.keys.values()):
        runs = battery.spans_named("verify.run_criterion", battery.calls_of(key))
        m[f"verify.{key}.s"] = (sum(s.duration for s in runs), "s")
    m["verify.checks_failed"] = (battery.counters.get("checks_failed", 0), "count")

    for key in dict.fromkeys(cli_pass.keys[cid] for cid in cli_pass.keys
                             if cid not in cli_pass.probe_ids):
        mains = [s for s in cli_pass.spans_named("cli.main", cli_pass.calls_of(key))
                 if s.parent_id == 0]
        m[f"cli.{key}.s"] = (fmean(s.duration for s in mains), "s")
    own = self_times(cli_pass.spans)
    m["cli.self_s"] = (sum(own[s.span_id] for s in cli_pass.spans if s.layer == "cli"), "s")
    m["cli.bytes_out"] = (cli_pass.counters.get("bytes_out", 0), "bytes")
    emit = sum(s.duration for s in cli_pass.spans_named("cli.emit"))
    m["cli.emit_bytes_per_s"] = (_ratio(cli_pass.counters.get("table_bytes_out", 0), emit),
                                 "bytes/s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
