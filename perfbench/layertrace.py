"""Per-layer tracing of the engine, installed from outside.

The tracer rebinds the public functions of the engine's modules to
wrappers: on the module that defines them, on every other `morozov` module
that imported the same object by name (`from .gfp import kernel, rref`),
and on the classes that own the hot methods.  Each wrapper charges the time
since the previous event to the layer on top of a stack, so a layer's
self time excludes its nested calls into other layers.  Hot functions get
counters and stack-accounted timers; the coarse boundaries also record
spans (name, start, end, parent), kept in memory until the run ends.

Layers are the modules `gfp`, `liealg`, `radicals`, `tower`, `parabolic`
and `kempf`; time outside them (the harness, `serialize`) goes to `bench`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("gfp", "liealg", "radicals", "tower", "parabolic", "kempf")

# metric name -> unit, in the order they are reported
METRICS = {
    "gfp.self_s": "s", "gfp.rref.calls": "count", "gfp.kernel.calls": "count",
    "gfp.cells_reduced": "count", "gfp.enum.vectors": "count",
    "liealg.self_s": "s", "liealg.bracket.calls": "count",
    "liealg.bracket.s": "s", "liealg.ad.calls": "count",
    "liealg.p_power.calls": "count", "liealg.p_power.s": "s",
    "liealg.normalizer.calls": "count", "liealg.normalizer.s": "s",
    "liealg.memo_entries": "count",
    "radicals.self_s": "s", "radicals.pnil_test.calls": "count",
    "radicals.pnil_test.s": "s", "radicals.p_power_per_test": "ratio",
    "radicals.solvable_radical.s": "s", "radicals.pnil_part.s": "s",
    "radicals.p_radical.s": "s", "radicals.path.structured": "count",
    "radicals.path.enumeration": "count", "radicals.undetermined": "count",
    "tower.self_s": "s", "tower.check_input.s": "s", "tower.verify.s": "s",
    "tower.steps": "count",
    "parabolic.self_s": "s", "parabolic.detect.calls": "count",
    "parabolic.detect.s": "s", "parabolic.invariants.s": "s",
    "parabolic.weyl_frames": "count", "parabolic.path.coordinate": "count",
    "parabolic.path.frame_translate": "count",
    "parabolic.path.invariants": "count",
    "kempf.self_s": "s", "kempf.optimize.s": "s", "kempf.check_input.s": "s",
    "kempf.cochars_enumerated": "count", "kempf.admissible_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = ["bench"]
        self.last = clock()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.timers = defaultdict(float)      # inclusive, outermost call only
        self.depth = defaultdict(int)
        self.spans = []                       # [name, start, end, parent, case]
        self.open_spans = []
        self.case = None
        self._undo = []

    # -- stack accounting ----------------------------------------------------

    def _enter(self, layer):
        now = self.clock()
        self.self_s[self.stack[-1]] += now - self.last
        self.last = now
        self.stack.append(layer)
        return now

    def _leave(self):
        now = self.clock()
        self.self_s[self.stack.pop()] += now - self.last
        self.last = now
        return now

    def begin_case(self, case_id):
        self.case = case_id
        self._open_span("case")

    def end_case(self):
        self._close_span()
        self.case = None

    def _open_span(self, name):
        parent = self.open_spans[-1] if self.open_spans else None
        self.spans.append([name, self.clock(), None, parent, self.case])
        self.open_spans.append(len(self.spans) - 1)

    def _close_span(self):
        self.spans[self.open_spans.pop()][2] = self.clock()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, layer, metric=None, span=None, pre=None, post=None):
        """Wrapper counting `metric.calls`, timing `metric.s` over outermost
        calls, recording a span when `span` is a name, and calling
        pre(args) / post(result) outside the timed region."""
        tracer = self
        counts, timers, depth = self.counts, self.timers, self.depth
        calls = metric + ".calls" if metric else None
        secs = metric + ".s" if metric else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            start = tracer._enter(layer)
            if metric:
                counts[calls] += 1
                outer = depth[metric] == 0
                depth[metric] += 1
            if span:
                tracer._open_span(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._on_error(layer, exc)
                raise
            finally:
                if span:
                    tracer._close_span()
                end = tracer._leave()
                if metric:
                    depth[metric] -= 1
                    if outer:
                        timers[secs] += end - start
            if post is not None:
                post(result)
            return result
        return wrapper

    def wrap_generator(self, fn, layer, count):
        """Wrapper for a generator function: each resumption runs inside
        `layer`, and `count` counts the items yielded."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._leave()
                counts[count] += 1
                yield item
        return wrapper

    def _on_error(self, layer, exc):
        undetermined = getattr(sys.modules.get("morozov.radicals"),
                               "Undetermined", None)
        # count each Undetermined once, where it leaves the radicals layer
        if layer == "radicals" and undetermined is not None \
                and isinstance(exc, undetermined) and self.stack[-2] != "radicals":
            self.counts["radicals.undetermined"] += 1

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace every `morozov` module attribute bound to `original`."""
        for name, mod in list(sys.modules.items()):
            if not (name == "morozov" or name.startswith("morozov.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, name, replacement):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self):
        from morozov import gfp, kempf, liealg, parabolic, radicals, tower
        counts = self.counts

        def cells_of_matrix(args):
            counts["gfp.cells_reduced"] += args[0].rows * args[0].cols

        def count_p_power(args):
            if self.depth["radicals.pnil_test"]:
                counts["radicals.pnil_test.p_powers"] += 1

        def count_method(result):
            counts["radicals.path." + result["method"]] += 1

        def count_steps(result):
            counts["tower.steps"] += len(result.steps) - 1

        def count_path(result):
            if result.details.get("frame_translate"):
                path = "frame_translate"
            elif "invariants" in result.details:
                path = "invariants"
            else:
                path = "coordinate"
            counts["parabolic.path." + path] += 1

        def count_frames(result):
            counts["parabolic.weyl_frames"] += len(result)

        def count_cochars(result):
            counts["kempf.cochars_enumerated"] += result.enumerated_count
            counts["kempf.admissible"] += result.admissible_count

        functions = [
            (gfp, "rref", "gfp", "gfp.rref", None, cells_of_matrix, None),
            (gfp, "kernel", "gfp", "gfp.kernel", None, cells_of_matrix, None),
            (liealg, "weyl_matrices", "liealg", None, None, None, count_frames),
            (liealg, "conjugate_subspace", "liealg", None, None, None, None),
            (liealg, "standard_parabolic", "liealg", None, None, None, None),
            (radicals, "is_p_nilpotent", "radicals", "radicals.pnil_test",
             None, None, None),
            (radicals, "solvable_radical", "radicals",
             "radicals.solvable_radical", "solvable_radical", None, None),
            (radicals, "pnil_part_of_radical", "radicals", "radicals.pnil_part",
             "pnil_part_of_radical", None, count_method),
            (radicals, "p_radical", "radicals", "radicals.p_radical",
             "p_radical", None, None),
            (radicals, "nilradical", "radicals", None, "nilradical", None, None),
            (radicals, "radical_report", "radicals", None, "radical_report",
             None, None),
            (tower, "run_tower", "tower", None, "run_tower", None, count_steps),
            (tower, "verify_morozov", "tower", "tower.verify", "verify_morozov",
             None, None),
            (tower, "check_tower_input", "tower", "tower.check_input",
             "check_tower_input", None, None),
            (tower, "tower_step", "tower", None, None, None, None),
            (parabolic, "detect_parabolic", "parabolic", "parabolic.detect",
             "detect_parabolic", None, count_path),
            (parabolic, "iso_invariants", "parabolic", "parabolic.invariants",
             "iso_invariants", None, None),
            (parabolic, "contains_borel", "parabolic", None, None, None, None),
            (kempf, "optimize", "kempf", "kempf.optimize", "kempf.optimize",
             None, count_cochars),
            (kempf, "check_search_class", "kempf", "kempf.check_input", None,
             None, None),
            (kempf, "verify_obstruction", "kempf", None, None, None, None),
            (kempf, "parabolic_from_cochar", "kempf", None, None, None, None),
        ]
        for mod, name, layer, metric, span, pre, post in functions:
            original = getattr(mod, name)
            self._rebind(original, self.wrap(original, layer, metric, span,
                                             pre, post))

        methods = [
            ("bracket_vec", "liealg.bracket", None),
            ("ad_matrix_vec", "liealg.ad", None),
            ("p_power_vec", "liealg.p_power", count_p_power),
            ("normalizer", "liealg.normalizer", None),
            ("centralizer", None, None),
            ("bracket_spaces", None, None),
            ("is_subalgebra", None, None),
            ("largest_ideal_inside", None, None),
            ("subalgebra_closure", None, None),
        ]
        for name, metric, pre in methods:
            self._patch_method(liealg.LieAlgebra, name, self.wrap(
                getattr(liealg.LieAlgebra, name), "liealg", metric, None, pre))

        sub = gfp.Subspace
        from_vectors = sub.__dict__["from_vectors"].__func__
        wrapped = self.wrap(from_vectors, "gfp", "gfp.rref")

        def counted_from_vectors(cls, vectors, ambient_dim, p):
            vectors = list(vectors)
            counts["gfp.cells_reduced"] += len(vectors) * ambient_dim
            return wrapped(cls, vectors, ambient_dim, p)

        self._patch_method(sub, "from_vectors", classmethod(counted_from_vectors))
        self._patch_method(sub, "enumerate_vectors", self.wrap_generator(
            sub.enumerate_vectors, "gfp", "gfp.enum.vectors"))
        self.last = self.clock()

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------------

    def metrics(self, memo_entries: int) -> dict:
        """Every per-layer metric except the tracing overhead, which needs
        the untraced run."""
        c, t, s = self.counts, self.timers, self.self_s
        out = {f"{layer}.self_s": s[layer] for layer in LAYERS}
        for name, unit in METRICS.items():
            if name in out or name == "trace.overhead_s":
                continue
            if unit == "s":
                out[name] = t[name]
            elif unit == "count":
                out[name] = c[name]
        out["liealg.memo_entries"] = memo_entries
        tests = c["radicals.pnil_test.calls"]
        out["radicals.p_power_per_test"] = (
            c["radicals.pnil_test.p_powers"] / tests if tests else 0.0)
        enumerated = c["kempf.cochars_enumerated"]
        out["kempf.admissible_ratio"] = (
            c["kempf.admissible"] / enumerated if enumerated else 0.0)
        return out
