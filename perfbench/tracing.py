"""In-process tracer for the traced benchmark run.

The tracer wraps framesync's public functions at the attribute each caller
looks them up through (a module global or a class attribute), so nothing
under src/ changes. Every call becomes a span (name, start, end, parent,
row) kept in memory; counts are taken at the same boundaries. `uninstall`
puts every original attribute back. A name missing from the program (a
later refactor may delete one) is recorded as absent, not as an error.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# span fields
NAME, START, END, PARENT, ROW, CHILD_S, OUTER = range(7)


def _label(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _percentiles(us: list[float]) -> dict[str, float]:
    if len(us) < 2:
        return {"p50_us": us[0] if us else 0.0, "p99_us": us[0] if us else 0.0}
    return {"p50_us": statistics.median(us),
            "p99_us": statistics.quantiles(us, n=100, method="inclusive")[98]}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (owner, attr, original)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._row = None
        self._row_depth = 0
        self._next_row = 0
        self._engine_path: dict[int, str] = {}
        self._last_exc = None

    # ------------------------------------------------------------ spans

    def _open(self, name: str, row_level: bool) -> list:
        if row_level:
            if self._row_depth == 0:
                self._row = self._next_row
                self._next_row += 1
            self._row_depth += 1
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._row, 0.0, self._active[name] == 0]
        self._active[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list, row_level: bool) -> None:
        span[END] = end = perf_counter()
        self._stack.pop()
        self._active[span[NAME]] -= 1
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD_S] += end - span[START]
        if row_level:
            self._row_depth -= 1
            if self._row_depth == 0:
                self._row = None

    def call(self, name: str, fn, *args, row_level: bool = False, **kwargs):
        """Run fn(*args, **kwargs) inside a span; for calls the benchmark makes itself."""
        span = self._open(name, row_level)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self._count_error(name, exc)
            raise
        finally:
            self._close(span, row_level)

    def _count_error(self, name: str, exc: BaseException) -> None:
        # an exception unwinding through nested spans counts once, where it starts
        if exc is not self._last_exc:
            self._last_exc = exc
            self.counts[name + ".failures"] += 1

    # ---------------------------------------------------------- patching

    def wrap(self, owner, attr: str, name: str, *, row_level=False, before=None, after=None):
        """Replace owner.attr with a traced wrapper; absent attributes are recorded."""
        if attr not in vars(owner):
            self.absent.append(f"{_label(owner)}.{attr}")
            return
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            span = tracer._open(name, row_level)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(name, exc)
                raise
            finally:
                tracer._close(span, row_level)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; returns the labels not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [
            f"{_label(owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches.clear()
        return bad

    def install(self, fs) -> None:
        """Wrap the layer boundaries of the framesync package `fs`."""
        cli, dec = fs.cli, fs.decoder
        cont, thr, seq = fs.continuous, fs.thresholds, fs.sequences
        engine = getattr(dec, "TrialEngine", None)
        counts = self.counts

        def count_symbols(args, kwargs):
            x = kwargs["input_symbols"] if "input_symbols" in kwargs else args[1]
            counts["channels.sample_outputs.symbols"] += len(x)
            return args

        def count_evals(args, kwargs):
            fn = args[0]

            def counted(*a):
                counts["quadrature.adaptive_quad.evals"] += 1
                return fn(*a)

            return (counted, *args[1:])

        def engine_ready(args, result):
            # the engine path is read from the engine once __init__ is done
            self_ = args[0]
            full = getattr(self_, "full_mode", None)
            if getattr(self_, "batchable", False):
                path = "batched"
            elif full is None:
                path = "unknown"
            else:
                path = "full" if full else "skip"
            self._engine_path[id(self_)] = path

        def count_trial(args, kwargs):
            counts[f"decoder.path.{self._engine_path.get(id(args[0]), 'unknown')}_trials"] += 1
            return args

        def count_batch(args, kwargs):
            lo, hi = args[2], args[3]
            counts["decoder.TrialEngine.run_batch.trials"] += hi - lo
            counts[f"decoder.path.{self._engine_path.get(id(args[0]), 'unknown')}_trials"] += hi - lo
            return args

        self.wrap(cli, "monte_carlo", "decoder.monte_carlo", row_level=True)
        self.wrap(cli, "bsc_scaling_rows", "decoder.rows")
        self.wrap(cli, "energy_scaling_rows", "decoder.rows")
        self.wrap(dec, "trial_rng", "decoder.trial_rng")
        self.wrap(dec, "classify", "decoder.classify")
        self.wrap(dec, "sample_outputs", "channels.sample_outputs", before=count_symbols)
        if engine is None:
            self.absent.append("framesync.decoder.TrialEngine")
        else:
            self.wrap(engine, "__init__", "decoder.TrialEngine.init", after=engine_ready)
            self.wrap(engine, "run", "decoder.TrialEngine.run", before=count_trial)
            self.wrap(engine, "run_batch", "decoder.TrialEngine.run_batch", before=count_batch)
        # row builders import these at call time from their home modules
        self.wrap(seq, "build_sync_word", "sequences.build_sync_word")
        self.wrap(cli, "build_sync_word", "sequences.build_sync_word")
        self.wrap(cont, "quantize_to_dmc", "continuous.quantize_to_dmc", row_level=True)
        self.wrap(cli, "quantize_to_dmc", "continuous.quantize_to_dmc", row_level=True)
        self.wrap(thr, "sync_threshold", "thresholds.sync_threshold")
        self.wrap(cli, "sync_threshold", "thresholds.sync_threshold")
        self.wrap(
            thr, "rayleigh_threshold_numeric", "thresholds.rayleigh_threshold_numeric",
            row_level=True,
        )
        self.wrap(thr, "rayleigh_awgn_density", "continuous.rayleigh_awgn_density")
        self.wrap(cont, "adaptive_quad", "quadrature.adaptive_quad", before=count_evals)
        self.wrap(thr, "adaptive_quad", "quadrature.adaptive_quad", before=count_evals)

    # ----------------------------------------------------------- results

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans only), self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            dur = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += dur - span[CHILD_S]
            if span[OUTER]:
                entry["s"] += dur
        return dict(out)

    def durations_us(self, name: str) -> list[float]:
        return [(s[END] - s[START]) * 1e6 for s in self.spans if s[NAME] == name]

    def layer_metric(self, name: str, summary: dict) -> float:
        """`<span>.calls`, `<span>.s` (outermost spans only), `<span>.self_s`,
        `<span>.p50_us` or `<span>.p99_us`; any other name is a count."""
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            return summary.get(span, {}).get(field, 0)
        if field in ("p50_us", "p99_us"):
            return _percentiles(self.durations_us(span))[field]
        return self.counts[name]

    def row_summary(self) -> dict:
        """Per row (the ordinal of a monte_carlo, quantize_to_dmc or threshold call):
        TrialEngine.run calls with their p50 and p99 in microseconds."""
        rows: dict = defaultdict(list)
        for span in self.spans:
            if span[NAME] == "decoder.TrialEngine.run":
                rows[span[ROW]].append((span[END] - span[START]) * 1e6)
        return {str(row): {"run_calls": len(d), **_percentiles(d)} for row, d in rows.items()}

    def write_spans(self, path: str) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, row (times in s)."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, row, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, row]) + "\n")
