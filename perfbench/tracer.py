"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions and public methods of every
layer module of `sigmalcd` and rebinds each wrapper at every place the
original is bound (`from ... import` copies, aliases, the package
namespace), so that a call counts however it was reached.  Nothing is
added to `src/`.

Each wrapped call outside `field` records a span (name, start, end, parent,
op id) in memory.  A layer's self time is the time of its spans minus the
time covered by child spans and by field calls inside them.  The `field`
layer sees about 10^5 calls per pass, so it keeps counters and a timer
only, with no span per call.
"""

from __future__ import annotations

import inspect
import sys
import types
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("field", "linalg", "poly", "codes", "cyclotomic", "gqc", "abelian", "oracle", "formats", "cli")

# at most this many spans are kept in memory per run; later ones are counted
MAX_SPANS = 200_000


PACKAGE = "sigmalcd"


class Tracer:
    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.op = None
        self.reset()

    def reset(self) -> None:
        """Zero the counters; spans already recorded are kept."""
        self.calls: Counter = Counter()  # per qualified name
        self.counts: Counter = Counter()  # named work counters
        self.maxima: Counter = Counter()
        self.self_ns: Counter = Counter()  # per layer
        self.fn_self_ns: Counter = Counter()  # per qualified name
        self.incl_ns: Counter = Counter()  # per qualified name
        self.stack: list[list] = []  # [span index, child ns, name]
        self.field_depth = 0

    # -- wrappers -----------------------------------------------------------

    def _error(self, layer: str, exc: BaseException) -> None:
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.counts[f"{layer}.errors"] += 1

    def _field_wrapper(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            tr.counts["field.calls"] += 1
            outer = tr.field_depth == 0
            tr.field_depth += 1
            t0 = perf_counter_ns() if outer else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._error("field", exc)
                raise
            finally:
                tr.field_depth -= 1
                if outer:
                    dt = perf_counter_ns() - t0
                    tr.self_ns["field"] += dt
                    if tr.stack:
                        tr.stack[-1][1] += dt
            if type(result) is int:
                tr.counts["field.scalar_calls"] += 1
            size = getattr(result, "size", 1)
            for a in args:
                s = getattr(a, "size", 1)
                if s > size:
                    size = s
            tr.counts["field.elements"] += size
            return result

        return wrapper

    def _span_wrapper(self, fn, layer: str, name: str, hook):
        tr = self

        def wrapper(*args, **kwargs):
            index = len(tr.spans)
            parent = tr.stack[-1][0] if tr.stack else -1
            record = index < MAX_SPANS
            if record:
                tr.spans.append([name, 0, 0, parent, tr.op])
            else:
                tr.dropped_spans += 1
                index = -1
            frame = [index, 0, name]
            tr.stack.append(frame)
            pre = hook.pre(args, kwargs) if hook is not None and hook.pre else None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._error(layer, exc)
                if hook is not None and hook.on_error:
                    hook.on_error(tr, exc)
                raise
            finally:
                t1 = perf_counter_ns()
                tr.stack.pop()
                dt = t1 - t0
                tr.self_ns[layer] += dt - frame[1]
                tr.fn_self_ns[name] += dt - frame[1]
                tr.incl_ns[name] += dt
                tr.calls[name] += 1
                tr.counts[f"{layer}.calls"] += 1
                if tr.stack:
                    tr.stack[-1][1] += dt
                if record:
                    span = tr.spans[index]
                    span[1], span[2] = t0, t1
            if hook is not None and hook.post:
                hook.post(tr, args, kwargs, result, pre)
            return result

        return wrapper

    def _counting_generator(self, fn, counter: str):
        tr = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tr.counts[counter] += 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for everything wrapped."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    out += self._class_targets(layer, obj)
                elif callable(obj):
                    out.append((mod, attr, obj, self._wrap(layer, f"{layer}.{attr}", obj)))
        codes = sys.modules[f"{PACKAGE}.codes"]
        for attr in ("_lcp_candidates_big_q", "_lcp_candidates_binary"):
            fn = getattr(codes, attr)
            out.append((codes, attr, fn, self._counting_generator(fn, "codes.lcp_candidates")))
        return out

    def _class_targets(self, layer: str, cls):
        out = []
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                out.append((cls, attr, obj, type(obj)(self._wrap(layer, name, obj.__func__))))
            elif isinstance(obj, types.FunctionType):
                out.append((cls, attr, obj, self._wrap(layer, name, obj)))
        return out

    def _wrap(self, layer: str, name: str, fn):
        if layer == "field":
            return self._field_wrapper(fn)
        return self._span_wrapper(fn, layer, name, HOOKS.get(name))

    def install(self) -> None:
        if self.patches:
            return
        targets = self._targets()
        by_id = {id(orig): wrapper for _, _, orig, wrapper in targets}
        for owner, attr, orig, wrapper in targets:
            if inspect.isclass(owner):
                self.patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
        # every module-level binding of a wrapped function, wherever it lives
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and not inspect.isclass(value):
                    self.patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches = []

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset()."""
        c, inc = self.counts, self.incl_ns
        ms = lambda ns: ns / 1e6  # noqa: E731
        enum_ns = inc["oracle.brute_min_distance"] + inc["oracle.weight_distribution"]
        out = {
            "field.calls": c["field.calls"],
            "field.scalar_calls": c["field.scalar_calls"],
            "field.elements": c["field.elements"],
            "field.self_ms": ms(self.self_ns["field"]),
            "linalg.rref.calls": self.calls["linalg.rref"],
            "linalg.rref.cells": c["linalg.rref.cells"],
            "linalg.rref.self_ms": ms(self.fn_self_ns["linalg.rref"]),
            "linalg.mat_mul.calls": self.calls["linalg.mat_mul"],
            "linalg.mat_mul.macs": c["linalg.mat_mul.macs"],
            "linalg.mat_mul.temp_mb": self.maxima["linalg.mat_mul.temp_bytes"] / 2**20,
            "linalg.mat_mul.self_ms": ms(self.fn_self_ns["linalg.mat_mul"]),
            "linalg.nullspace.calls": self.calls["linalg.nullspace"],
            "linalg.intersection.calls": self.calls["linalg.intersection"],
            "poly.calls": c["poly.calls"],
            "codes.hull_dim.calls": self.calls["codes.hull_dim"],
            "codes.apply.calls": self.calls["codes.SemiLinearMap.apply"],
            "codes.lcp_candidates": c["codes.lcp_candidates"],
            "cyclotomic.contexts": self.calls["cyclotomic.CyclotomicContext.__init__"],
            "cyclotomic.minimal_polys": c["cyclotomic.minimal_polys"],
            "gqc.route.constituent_ms": ms(inc["gqc.context_for"] + inc["gqc.is_mua_lcd"]),
            "gqc.route.eval_ms": ms(inc["gqc.one_gen_lcd_eval"]),
            "gqc.route.gcd_ms": ms(inc["gqc.one_gen_lcd_gcd"]),
            "gqc.constituents": self.calls["gqc.constituent"],
            "abelian.idempotent.calls": self.calls["abelian.find_idempotent_generator"],
            "abelian.ga_mul.calls": self.calls["abelian.ga_mul"],
            "oracle.words": c["oracle.words"],
            "oracle.words_per_s": c["oracle.words"] / (enum_ns / 1e9) if enum_ns else 0.0,
            "oracle.chunk_mb": self.maxima["oracle.chunk_bytes"] / 2**20,
            "oracle.hull_checks": self.calls["oracle.brute_hull_dim"],
            "formats.parse.calls": c["formats.parse.calls"],
            "formats.parse.bytes": c["formats.parse.bytes"],
            "cli.commands": self.calls["cli.cmd_dispatch"],
            "cli.exit.0": c["cli.exit.0"],
            "cli.exit.1": c["cli.exit.1"],
            "cli.exit.2": c["cli.exit.2"],
            "cli.uncaught": c["cli.uncaught"],
        }
        for layer in LAYERS:
            if layer != "field":
                out[f"{layer}.self_ms"] = ms(self.self_ns[layer])
            out[f"{layer}.errors"] = c[f"{layer}.errors"]
        return out

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{op}\n")
            if self.dropped_spans:
                fh.write(f"# {self.dropped_spans} further spans not kept\n")


# ---------------------------------------------------------------------------
# work counters measured at particular boundaries


class Hook:
    def __init__(self, post=None, pre=None, on_error=None):
        self.post, self.pre, self.on_error = post, pre, on_error


def _rref_post(tr, args, kwargs, result, pre):
    tr.counts["linalg.rref.cells"] += int(getattr(args[1], "size", 0))


def _mat_mul_post(tr, args, kwargs, result, pre):
    (rows, inner), cols = np.shape(args[1]), np.shape(args[2])[1]
    macs = int(rows) * int(inner) * int(cols)
    tr.counts["linalg.mat_mul.macs"] += macs
    # the k x k x n product cube of int64 log sums
    tr.maxima["linalg.mat_mul.temp_bytes"] = max(tr.maxima["linalg.mat_mul.temp_bytes"], 8 * macs)


def _minimal_poly_pre(args, kwargs):
    ctx = args[0]
    return len(ctx._minpolys)


def _minimal_poly_post(tr, args, kwargs, result, pre):
    tr.counts["cyclotomic.minimal_polys"] += len(args[0]._minpolys) - pre


def _enum_post(tr, args, kwargs, result, pre):
    code = args[0]
    total = code.field.q**code.k
    chunk = kwargs.get("chunk", args[3] if len(args) > 3 else 1 << 16)
    tr.counts["oracle.words"] += total
    # one chunk of message digits times the generator, as int64 log sums
    size = 8 * min(chunk, total) * code.k * code.n
    tr.maxima["oracle.chunk_bytes"] = max(tr.maxima["oracle.chunk_bytes"], size)


def _parse_post(tr, args, kwargs, result, pre):
    if tr.stack and tr.stack[-1][2].startswith("formats.parse"):
        return  # counted once, at the outermost parse call
    text = args[0] if args else ""
    tr.counts["formats.parse.calls"] += 1
    tr.counts["formats.parse.bytes"] += len(text) if isinstance(text, str) else 0


def _dispatch_post(tr, args, kwargs, result, pre):
    tr.counts[f"cli.exit.{result}"] += 1


def _dispatch_error(tr, exc):
    tr.counts["cli.uncaught"] += 1


HOOKS = {
    "linalg.rref": Hook(post=_rref_post),
    "linalg.mat_mul": Hook(post=_mat_mul_post),
    "cyclotomic.CyclotomicContext.minimal_poly": Hook(post=_minimal_poly_post, pre=_minimal_poly_pre),
    "oracle.brute_min_distance": Hook(post=_enum_post),
    "oracle.weight_distribution": Hook(post=_enum_post),
    "cli.cmd_dispatch": Hook(post=_dispatch_post, on_error=_dispatch_error),
}
for _name in ("parse_field", "parse_poly", "parse_code", "parse_sigma", "parse_gqc_raw", "parse_gqc", "parse_product_spec"):
    HOOKS[f"formats.{_name}"] = Hook(post=_parse_post)
