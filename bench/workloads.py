"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in :meth:`setup`
(which also runs a small untimed warm-up), then repeats one fixed unit of
work per :meth:`run_pass`.  A pass reports the operations it attempted and
the ones that failed, plus the amount of work its throughput counts.
:meth:`check` judges one pass's outputs with tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import checks
from backwater import cli, data, harness, hydraulics, metrics, models, solver
from backwater.data import DESK_GRID, FULL_GRID, ParameterRanges

#: The acceptance suite's wide box: both regimes, hydraulic jumps, and a few
#: scenarios whose subcritical march runs out of energy.
WIDE_RANGES = {
    "s": (5e-4, 2e-2, 5),
    "b": (5.0, 50.0, 5),
    "n": (0.01, 0.05, 5),
    "zd": (1.0, 5.0, 2),
    "Q": (100.0, 300.0, 2),
}
#: Physics outcomes of WIDE_RANGES on FULL_GRID; they do not depend on the seed.
WIDE_FULL_COUNTS = {"retained": 480, "rejected": 20, "mixed": 226}

#: The desk study's cells, one per architecture; their strategies cover the
#: energy, Froude and volume physics terms.
CELLS = (
    {"arch": "sp", "strategy": "en", "lam": 0.9, "width": 16},
    {"arch": "int", "strategy": "fr", "lam": 0.5, "width": 16},
    {"arch": "vts", "strategy": "vol", "lam": 0.3, "width": 16},
)
FRACTION = 0.05


def fixed_budget(epochs: int, seed: int):
    """The desk plan's TrainConfig with early stopping out of reach."""
    _, config = harness.desk_plan()
    return replace(config, max_epochs=epochs, early_stop_patience=epochs + 1, seed=seed)


def steps_per_epoch(spec, ds, config) -> int:
    """Adam minibatch steps one epoch of ``models.train`` takes."""
    n_train = len(ds.indices("train"))
    n_points = ds.grid.n_points
    samples = {"sp": n_train * n_points, "int": n_train * (n_points - 1), "vts": n_train}
    batch = config.batch_size or models.DEFAULT_BATCH_SIZES[spec.arch]
    return math.ceil(samples[spec.arch] / batch)


def replay_mismatches(stored, replayed) -> int:
    """Fields of a replayed run record that differ from the stored one."""
    if stored is None or replayed is None:
        return 1
    fields = [replayed.records == stored.records, replayed.history == stored.history]
    fields += [replayed.summaries.get(k) == stored.summaries.get(k) for k in stored.summaries]
    return sum(not same for same in fields)


def _report_failure(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc()


@dataclass
class Pass:
    """One pass: operations attempted and failed, work done, outputs to check."""

    attempted: int
    failed: int
    work: float
    output: object = None


class Corpus:
    """``data.generate`` over the wide box on the 501-station grid."""

    unit = "scenarios"

    def setup(self, seed: int, workdir: Path) -> None:
        self.ranges = ParameterRanges.from_dict(WIDE_RANGES)
        self.grid = FULL_GRID
        self.seed = seed
        # warm-up: every 10th scenario of the box, the same for every seed
        for scen in list(self.ranges.scenarios())[::10]:
            try:
                solver.solve_profile(scen, self.grid)
            except (hydraulics.InsufficientEnergyError, hydraulics.ConvergenceError):
                pass

    def run_pass(self) -> Pass:
        n = self.ranges.n_combinations
        try:
            ds = data.generate(self.ranges, self.grid, self.seed)
        except Exception:
            _report_failure("generate")
            return Pass(n, n, n)
        return Pass(n, 0, n, ds)

    def check(self, ds) -> dict[str, bool]:
        if ds is None:
            return {"generated": False}
        return checks.check_corpus(ds, WIDE_FULL_COUNTS)


class Train:
    """``models.train`` on the 5% desk corpus, one seed of each desk cell."""

    unit = "steps"
    epochs = 10

    def setup(self, seed: int, workdir: Path) -> None:
        full = data.generate(data.desk_ranges(), DESK_GRID, seed)
        self.ds = data.subsample_training(full, FRACTION, seed)
        self.config = fixed_budget(self.epochs, seed)
        self.specs = [models.ModelSpec(**cell) for cell in CELLS]
        self.steps = [steps_per_epoch(spec, self.ds, self.config) for spec in self.specs]
        warm = replace(self.config, max_epochs=1, early_stop_patience=2)
        for spec in self.specs:
            models.train(spec, self.ds, warm)

    def run_pass(self) -> Pass:
        trained, failed, work = [], 0, 0
        for spec, per_epoch in zip(self.specs, self.steps):
            try:
                model = models.train(spec, self.ds, self.config)
            except Exception:
                _report_failure(f"train {spec}")
                failed += 1
                continue
            trained.append(model)
            failed += bool(model.diagnostics["diverged"])
            work += per_epoch * model.diagnostics["epochs_run"]
        return Pass(len(self.specs), failed, work, trained)

    def check(self, trained) -> dict[str, bool]:
        results = {"all_trained": len(trained) == len(self.specs)}
        for model in trained:
            history = model.history
            label = f"{model.spec.arch}-{model.spec.strategy}"
            results[f"{label}.finite_history"] = all(
                math.isfinite(row["train_loss"]) and math.isfinite(row["val_loss"])
                for row in history
            )
            results[f"{label}.full_budget"] = (
                not model.diagnostics["diverged"] and len(history) == self.epochs
            )
        return results


class Evaluate:
    """``metrics.evaluate_set`` on every split plus ``per_station_mae`` on test."""

    unit = "profiles"
    epochs = 3
    splits = ("train", "val", "test")

    def setup(self, seed: int, workdir: Path) -> None:
        ds = data.generate(ParameterRanges.from_dict(WIDE_RANGES), DESK_GRID, seed)
        config = replace(fixed_budget(self.epochs, seed), batch_size=None)
        self.models = [
            models.train(models.ModelSpec(arch, width=16), ds, config)
            for arch in models.ARCHITECTURES
        ]
        self.sets = {split: (ds.profiles_in(split), ds.indices(split)) for split in self.splits}
        for model in self.models:  # warm-up on a handful of profiles
            metrics.evaluate_set(model, self.sets["test"][0][:5])

    def run_pass(self) -> Pass:
        attempted = failed = 0
        results = []
        test_profiles = self.sets["test"][0]
        for model in self.models:
            for split in self.splits:
                profiles, ids = self.sets[split]
                attempted += len(profiles)
                try:
                    out = metrics.evaluate_set(model, profiles, ids=ids, split=split)
                except Exception:
                    _report_failure(f"evaluate_set {model.spec.arch} {split}")
                    failed += len(profiles)
                    continue
                failed += out.excluded
                results.append((model, split, out))
            attempted += len(test_profiles)
            try:
                metrics.per_station_mae(model, test_profiles)
            except Exception:
                _report_failure(f"per_station_mae {model.spec.arch}")
                failed += len(test_profiles)
        return Pass(attempted, failed, attempted, results)

    def check(self, results) -> dict[str, bool]:
        """One result per scored profile, plus whether every set was scored."""
        out = {"all_evaluated": len(results) == len(self.models) * len(self.splits)}
        for model, split, evaluation in results:
            label = f"{model.spec.arch}.{split}"
            out[f"{label}.none_excluded"] = evaluation.excluded == 0
            by_id = {int(i): p for p, i in zip(*self.sets[split])}
            for rec in evaluation.records:
                prof = by_id[rec.profile_id]
                pred = models.reconstruct(model, prof.scenario, prof.grid)
                direct = checks.nmae(pred, prof.depths, prof.scenario.z_d)
                ok = abs(rec.nmae - direct) <= 1e-9 * max(direct, 1e-12)
                out[f"{label}.{rec.profile_id}.nmae_matches_reconstruct"] = bool(ok)
        return out


class Study:
    """``backwater sweep-size`` + ``report`` in-process, then replay one int run."""

    unit = "runs"
    epochs = 10
    seeds_per_cell = 3

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.corpus = workdir / "desk.csv"
        data.save(data.generate(data.desk_ranges(), DESK_GRID, seed), self.corpus)
        budget = fixed_budget(self.epochs, seed)
        keys = ("initial_lr", "max_epochs", "lr_patience", "early_stop_patience", "batch_size")
        train_cfg = {k: getattr(budget, k) for k in keys}
        self.ext_seed = harness.EXTRAPOLATION_SEED + seed
        self.config = workdir / "plan.json"
        self.config.write_text(json.dumps({
            "dataset": str(self.corpus),
            "cells": list(CELLS),
            "seeds": [seed + k for k in range(self.seeds_per_cell)],
            "fractions": [FRACTION],
            "extrapolation": True,
            "train": train_cfg,
        }))
        self.n_runs = len(CELLS) * self.seeds_per_cell
        self.passes = 0
        # warm-up: the same commands on one vts run of one epoch
        warm = workdir / "warm.json"
        warm.write_text(json.dumps({
            "dataset": str(self.corpus), "cells": [CELLS[2]], "seeds": [seed],
            "fractions": [FRACTION], "train": dict(train_cfg, max_epochs=1, early_stop_patience=2),
        }))
        self._cli(["sweep-size", "--config", str(warm), "--out", str(workdir / "warm")])
        shutil.rmtree(workdir / "warm", ignore_errors=True)

    def _cli(self, argv) -> tuple[int, str]:
        """Run ``backwater <argv>`` in-process; returns (exit code, stdout)."""
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            _report_failure(f"backwater {argv[0]}")
            code = 1
        return code, buffer.getvalue()

    def run_pass(self) -> Pass:
        shutil.rmtree(self.workdir / f"pass{self.passes}", ignore_errors=True)
        self.passes += 1
        out = self.workdir / f"pass{self.passes}"
        attempted = 2 + self.n_runs + 1  # two CLI calls, the sweep's runs, the replay
        failed = 0
        sweep_code, sweep_out = self._cli([
            "sweep-size", "--config", str(self.config), "--out", str(out),
            "--ext-seed", str(self.ext_seed),
        ])
        if sweep_code != 0:
            failed += 1 + self.n_runs
        report_code, _ = self._cli(["report", "--runs", str(out), "--out", str(out / "report.csv")])
        failed += report_code != 0
        stored = replayed = None
        try:
            records = harness.discover_records(out)
            stored = next(r for r in records if r.arch == "int")
            replayed = harness.replay(stored, data.load(self.corpus))
        except Exception:
            _report_failure("replay")
            failed += 1
        result = {
            "sweep_out": sweep_out, "report": out / "report.csv",
            "stored": stored, "replayed": replayed,
        }
        return Pass(attempted, failed, self.n_runs + 1, result)

    def check(self, result) -> dict[str, bool]:
        report = result["report"]
        rows = len(report.read_text().splitlines()) - 1 if report.exists() else -1
        try:
            runs = json.loads(result["sweep_out"].strip().splitlines()[-1])["runs"]
        except (ValueError, IndexError, KeyError):
            runs = -1
        return {
            "sweep_runs": runs == self.n_runs,
            # one test row and one extrapolation row per cell
            "report_rows": rows == 2 * len(CELLS),
            "replay_bitwise": replay_mismatches(result["stored"], result["replayed"]) == 0,
        }


WORKLOADS = {"corpus": Corpus, "train": Train, "evaluate": Evaluate, "study": Study}
