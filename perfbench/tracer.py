"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``invgpd`` modules and rebinds
each wrapper in every ``invgpd`` module namespace that holds the original
function object, so calls made inside the package are traced as well as
calls made by the benchmark. Nothing under ``src/`` is edited.

Each call is a span. A span's self time is its duration minus the time
covered by the spans it encloses. ``search.iter_functors`` returns a
generator: its span opens at the call and its self time is accumulated
per ``next()``, together with the budget units that ``next()`` spent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

from invgpd import budget as budget_mod


def _sizes_of(pick):
    """Counter hook that records the objects and morphisms of a built groupoid."""

    def hook(st, args, kwargs, result):
        G = pick(result)
        st["objects"] += G.n_objects
        st["morphisms"] += G.n_morphisms

    return hook


def _found(st, args, kwargs, result):
    if isinstance(result, tuple):  # solve_lifting(count_all=True) -> (first, n)
        result = result[0]
    st["found"] += result is not None


def _squares(st, args, kwargs, result):
    st["squares"] += result.squares_checked


def _factorize(st, args, kwargs, result):
    st["cells"] += result.cells_attached
    st["gluing_steps"] += result.gluing_steps


def _entries(st, args, kwargs, result):
    st["entries"] += len(result.entries)


def _loads_bytes(st, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    st["bytes"] += len(text.encode("utf-8"))


def _dumps_bytes(st, args, kwargs, result):
    st["bytes"] += len(result.encode("utf-8"))


# module, function, counters it keeps besides calls/self_s, hook, budget-tracked
LAYERS = [
    ("homotopy", "path_object", ("objects", "morphisms"), _sizes_of(lambda r: r.path.base), False),
    ("universe", "equivalence_space", (), None, False),
    ("core", "pullback", ("objects", "morphisms"), _sizes_of(lambda r: r[0]), False),
    ("equivariant", "equivariant_pullback", (), None, False),
    ("universe", "build_universe", ("objects", "morphisms"), _sizes_of(lambda r: r.U.base), False),
    ("universe", "universe_closure_checks", ("entries",), _entries, False),
    ("universe", "check_univalence", (), None, False),
    ("search", "iter_functors", ("yielded", "budget"), None, True),
    ("lifting", "has_rlp", ("squares",), _squares, False),
    ("lifting", "has_llp", ("squares",), _squares, False),
    ("lifting", "solve_lifting", ("found",), _found, False),
    ("lifting", "injective_classify", (), None, False),
    ("lifting", "projective_classify", (), None, False),
    ("lifting", "factorize", ("cells", "gluing_steps"), _factorize, False),
    ("equivariant", "attach_cell", ("objects", "morphisms"), _sizes_of(lambda r: r[0].base), False),
    ("pi", "pi_of", ("objects", "morphisms", "budget"), _sizes_of(lambda r: r.dom_pi.base), True),
    ("homotopy", "find_right_homotopy", ("found",), _found, False),
    ("core", "classify_functor", (), None, False),
    ("docformat", "loads", ("bytes",), _loads_bytes, False),
    ("docformat", "dumps", ("bytes",), _dumps_bytes, False),
    ("cli", "main", (), None, False),
]


def _budget_slot(fn):
    """(positional index or None, keyword name) of fn's ``budget`` parameter."""
    params = list(inspect.signature(fn).parameters.values())
    for k, p in enumerate(params):
        if p.name == "budget":
            positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            return (k if positional else None), p.name
    raise TypeError(f"{fn.__qualname__} takes no budget")


class Tracer:
    """Span stack and per-layer counters; install() wraps, uninstall() restores.

    Counters accumulate across repeated install/uninstall cycles. Inside
    ``suspended()`` the installed wrappers call straight through and count
    nothing, so the benchmark's own checks stay out of the layer metrics.
    """

    def __init__(self):
        self.active = True
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def suspended(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, st: dict, frame: list[float]) -> None:
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        st["self_s"] += dur - frame[1]
        st["total_s"] += dur
        if self._stack:
            self._stack[-1][1] += dur

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn, st, hook, budget_slot):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st["calls"] += 1
            if budget_slot is not None:
                args, kwargs, b = _resolve_budget(budget_slot, args, kwargs)
                before = b.used
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(st, frame)
                if budget_slot is not None:
                    st["budget"] += b.used - before
            if hook is not None:
                hook(st, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, st, budget_slot):
        tracer = self

        def run(gen, b):
            try:
                while True:
                    frame = tracer._enter()
                    before = b.used
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(st, frame)
                        st["budget"] += b.used - before
                    st["yielded"] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st["calls"] += 1
            args, kwargs, b = _resolve_budget(budget_slot, args, kwargs)
            return run(fn(*args, **kwargs), b)

        return wrapper

    def install(self) -> None:
        import invgpd  # noqa: F401  (loads every submodule)

        for mod_name, fn_name, counters, hook, tracks_budget in LAYERS:
            module = sys.modules[f"invgpd.{mod_name}"]
            fn = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            st = self.stats.setdefault(
                name, dict.fromkeys(("calls", "self_s", "total_s") + counters, 0)
            )
            slot = _budget_slot(fn) if tracks_budget else None
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(fn, st, slot)
            else:
                wrapper = self._wrap_call(fn, st, hook, slot)
            for mname, mod in list(sys.modules.items()):
                if mname != "invgpd" and not mname.startswith("invgpd."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


def _resolve_budget(slot, args, kwargs):
    """Pass an explicit Budget so the wrapper can read what the call spent.

    ``ensure_budget`` is what the wrapped function would apply itself, so
    the call's behaviour and budget limit are unchanged.
    """
    index, name = slot
    if index is not None and len(args) > index:
        b = budget_mod.ensure_budget(args[index])
        args = args[:index] + (b,) + args[index + 1:]
    else:
        b = budget_mod.ensure_budget(kwargs.get(name))
        kwargs = {**kwargs, name: b}
    return args, kwargs, b


def layer_metrics(stats: dict[str, dict[str, float]], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics named ``<module>.<function>.<quantity>``."""
    out: dict[str, float] = {}
    for name, st in stats.items():
        if name == "cli.main":
            out["cli.main.total_s"] = st["total_s"] / n_ops
            continue
        for key, value in st.items():
            if key not in ("total_s", "found"):
                out[f"{name}.{key}"] = value / n_ops
        if "found" in st:
            out[f"{name}.found_ratio"] = st["found"] / st["calls"] if st["calls"] else 0.0
        if name == "search.iter_functors":
            out[f"{name}.yield_per_kunit"] = (
                1000.0 * st["yielded"] / st["budget"] if st["budget"] else 0.0
            )
    return out


def deterministic_counts(stats: dict[str, dict[str, float]]) -> dict[str, int]:
    """Counters that must repeat exactly when the same ops run again."""
    return {
        f"{name}.{key}": value
        for name, st in stats.items()
        for key, value in st.items()
        if key not in ("self_s", "total_s")
    }
