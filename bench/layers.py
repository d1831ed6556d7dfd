"""Per-layer metrics: which public functions are wrapped, and what is derived.

Every metric is per pass of the workload's unit of work (totals over the
traced passes divided by their number), except the duration percentiles,
which pool every traced call.  Metrics of a layer a workload does not touch
read 0.  ``LAYERS.md`` maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import statistics
from collections import Counter

import workloads
from spans import Tracer, tail
from backwater import cli, data, harness, hydraulics, losses, metrics, models, network, solver

#: (module, attribute, metric prefix, reported statistics).  "calls"/"self_s"
#: are per pass; "p50_us"/"tail_us" and "p50_s"/"max_s" pool all calls.
WRAPPED = (
    (hydraulics, "depth_from_energy", "hydraulics.depth_from_energy", ("calls", "self_s")),
    (hydraulics, "normal_depth", "hydraulics.normal_depth", ("calls", "self_s")),
    (hydraulics, "friction_slope", "hydraulics.friction_slope", ("calls", "self_s")),
    (hydraulics, "specific_energy", "hydraulics.specific_energy", ("calls", "self_s")),
    (hydraulics, "conjugate_depth", "hydraulics.conjugate_depth", ("calls", "self_s")),
    (solver, "solve_profile", "solver.solve_profile", ("calls", "self_s", "p50_us", "tail_us")),
    (solver, "step_upstream", "solver.step_upstream", ("calls", "self_s")),
    (data, "generate", "data.generate", ()),
    (data, "view_sp", "data.view_sp", ("self_s",)),
    (data, "view_int", "data.view_int", ("self_s",)),
    (data, "view_vts", "data.view_vts", ("self_s",)),
    (data, "SampleBatch.shuffled", "data.SampleBatch.shuffled", ("calls", "self_s")),
    (data, "subsample_training", "data.subsample_training", ("self_s",)),
    (data, "load", "data.load", ("self_s",)),
    (data, "ProfileDataset.content_hash", "data.content_hash", ("self_s",)),
    (network, "forward", "network.forward", ("calls", "self_s", "p50_us", "tail_us")),
    (network, "backward", "network.backward", ("calls", "self_s", "p50_us", "tail_us")),
    (network, "adam_step", "network.adam_step", ("calls", "self_s", "p50_us", "tail_us")),
    (network, "mse", "network.mse", ("self_s",)),
    (losses, "loss_en", "losses.loss_en", ("calls", "self_s")),
    (losses, "loss_fr", "losses.loss_fr", ("calls", "self_s")),
    (losses, "loss_vol", "losses.loss_vol", ("calls", "self_s")),
    (losses, "combine", "losses.combine", ("calls", "self_s")),
    (models, "train", "models.train", ("self_s",)),
    (models, "reconstruct_int", "models.reconstruct_int", ("calls", "self_s", "p50_us", "tail_us")),
    (models, "reconstruct_sp", "models.reconstruct_sp", ("calls", "self_s", "p50_us", "tail_us")),
    (models, "reconstruct_vts", "models.reconstruct_vts", ("calls", "self_s", "p50_us", "tail_us")),
    (metrics, "evaluate_set", "metrics.evaluate_set", ("self_s",)),
    (metrics, "per_station_mae", "metrics.per_station_mae", ("self_s",)),
    (metrics, "nmae", "metrics.nmae", ("self_s",)),
    (metrics, "nnse", "metrics.nnse", ("self_s",)),
    (harness, "run_one", "harness.run_one", ("calls", "self_s", "p50_s", "max_s")),
    (harness, "extrapolation_dataset", "harness.extrapolation_dataset", ("self_s",)),
    (harness, "save_record", "harness.save_record", ("self_s",)),
    (harness, "discover_records", "harness.discover_records", ("self_s",)),
    (harness, "write_report", "harness.write_report", ("self_s",)),
    (harness, "replay", "harness.replay", ("self_s",)),
    (cli, "main", "cli.main", ("calls", "self_s")),
)


def _layer_flops(layer_sizes, rows: int) -> int:
    return sum(2 * rows * a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


class LayerTrace:
    """Installs the wrappers and derives per-layer metrics from the spans."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()

    # hooks: each sees (args, kwargs, result) of one completed call

    def _solved(self, args, kwargs, result):
        for profile in result if isinstance(result, (list, tuple)) else [result]:
            mixed = profile.regime == solver.MIXED
            self.counts["stations"] += profile.jump_index if mixed else profile.grid.n_points - 1
            self.counts["mixed"] += mixed
        if self.tracer.inside("harness.extrapolation_dataset"):
            self.counts["ext_solves"] += 1

    def _generated(self, args, kwargs, result):
        self.counts["rejected"] += len(result.manifest["rejected"])
        self.counts["retained"] += len(result.profiles)
        self.counts["grid"] += result.manifest["counts"]["grid"]

    def _forward(self, args, kwargs, result):
        params, inputs = args[0], args[1]
        self.counts["forward_flop"] += _layer_flops(params.layer_sizes, len(inputs))

    def _backward(self, args, kwargs, result):
        params, rows = args[0], len(args[2])
        # weight gradients for every layer, input deltas for all but the first
        self.counts["backward_flop"] += 2 * _layer_flops(params.layer_sizes, rows) - _layer_flops(
            params.layer_sizes[:2], rows
        )

    def _trained(self, args, kwargs, result):
        spec, ds = args[0], args[1]
        config = args[2] if len(args) > 2 else kwargs.get("config") or network.TrainConfig()
        diag = result.diagnostics
        self.counts["epochs"] += diag["epochs_run"]
        self.counts["useful_epochs"] += diag["best_epoch"] + 1
        self.counts["steps"] += diag["epochs_run"] * workloads.steps_per_epoch(spec, ds, config)
        self.counts["clamp_events"] += diag["clamp_events"]

    def _evaluated(self, args, kwargs, result):
        self.counts["excluded"] += result.excluded

    def _extrapolated(self, args, kwargs, result):
        self.counts["ext_profiles"] += len(result.profiles)

    def _replayed(self, args, kwargs, result):
        self.counts["mismatches"] += workloads.replay_mismatches(args[0], result)

    def install(self) -> None:
        hooks = {
            "solver.solve_profile": self._solved,
            "data.generate": self._generated,
            "network.forward": self._forward,
            "network.backward": self._backward,
            "models.train": self._trained,
            "metrics.evaluate_set": self._evaluated,
            "harness.extrapolation_dataset": self._extrapolated,
            "harness.replay": self._replayed,
        }
        for module, attr, name, stats in WRAPPED:
            keep = any(s in stats for s in ("p50_us", "p50_s"))
            self.tracer.install(module, attr, name, durations=keep, on_result=hooks.get(name))

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def metrics(self, passes: int, overhead_s: float) -> tuple[dict, dict]:
        """(per-layer metric values, tail details) for ``passes`` traced passes."""
        out, tails = {}, {}
        for _, _, name, stats in WRAPPED:
            stat = self.tracer.stats[name]
            for kind in stats:
                key = f"{name}.{kind}"
                if kind == "calls":
                    out[key] = stat.calls / passes
                elif kind == "self_s":
                    out[key] = stat.self_time / passes
                elif kind in ("p50_us", "p50_s"):
                    scale = 1e6 if kind == "p50_us" else 1.0
                    out[key] = statistics.median(stat.durations) * scale if stat.durations else 0.0
                elif kind == "tail_us":
                    value, percentile, samples = tail(stat.durations)
                    out[key] = value * 1e6
                    tails[key] = {"percentile": percentile, "samples": samples}
                elif kind == "max_s":
                    out[key] = max(stat.durations, default=0.0)
        c = self.counts
        out.update({
            "solver.stations_marched": c["stations"] / passes,
            "solver.mixed_profiles": c["mixed"] / passes,
            "data.generate.rejected": c["rejected"] / passes,
            "data.generate.retained_ratio": c["retained"] / c["grid"] if c["grid"] else 0.0,
            "network.forward.gflop": c["forward_flop"] / 1e9 / passes,
            "network.backward.gflop": c["backward_flop"] / 1e9 / passes,
            "losses.clamp_events": c["clamp_events"] / passes,
            "models.train.steps": c["steps"] / passes,
            "models.train.epochs": c["epochs"] / passes,
            "models.train.useful_epoch_ratio": c["useful_epochs"] / c["epochs"] if c["epochs"] else 0.0,
            "metrics.excluded": c["excluded"] / passes,
            "harness.extrapolation.accept_ratio": (
                c["ext_profiles"] / c["ext_solves"] if c["ext_solves"] else 0.0
            ),
            "harness.replay.mismatches": c["mismatches"] / passes,
            "benchmark.trace.overhead_s": overhead_s,
        })
        return out, tails
