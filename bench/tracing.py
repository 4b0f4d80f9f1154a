"""Spans around the library's public functions, for the traced run.

``install`` replaces each public function of ``words``, ``cases``,
``verification``, ``identity_checks`` and ``formats``, the transforms of
``sequences``, and ``cli.main`` with a wrapper, under every name a
module of the package binds it to (``cli`` imports ``count_automaton``
by name, ``verification`` reaches it as ``words.count_automaton``; both
must see the wrapper).  ``binom`` and the other helpers stay unwrapped:
they run millions of times inside the closed forms and a span each
would measure the tracer, not the library.

A wrapper records a span only while an operation is open, so the
benchmark's own checks call the library untraced.  A span is
``[parent, name, layer, work, key, start, end, op]``; ``layer`` and
``work`` are read from the call's arguments, for instance
``words.automaton_marked`` with work length * (marks + 1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "restricted_words"
MODULES = (
    "cases",
    "classics",
    "cli",
    "formats",
    "identity_checks",
    "sequences",
    "verification",
    "words",
)
SEQUENCE_FUNCTIONS = ("composition_triangle", "invert_power", "lift_triangle", "row_sums")

PARENT, NAME, LAYER, WORK, KEY, START, END, OP = range(8)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _enum_layer(args, kwargs, jobs_pos):
    jobs = _arg(args, kwargs, jobs_pos, "jobs", 1)
    return "words.enum_parallel" if jobs > 1 else "words.enum"


def _classify(qualname: str):
    """(args, kwargs) -> (layer, work, key) for one wrapped function."""
    module, func = qualname.split(".", 1)
    if qualname == "words.marked_histogram":

        def histogram(args, kwargs):
            spec, m, length = args[0], args[1], _arg(args, kwargs, 2, "length")
            key = (spec.case_id, spec.a, spec.b, m, length)
            return _enum_layer(args, kwargs, 4), spec.alphabet_size(m) ** length, key

        return histogram
    if func in ("count_exhaustive", "count_marked_exhaustive") and module == "words":
        jobs_pos = 4 if func == "count_exhaustive" else 5
        return lambda args, kwargs: (_enum_layer(args, kwargs, jobs_pos), 0, None)
    if func in ("iter_words", "is_valid") and module == "words":
        return lambda args, kwargs: ("words.predicate", 0, None)
    if qualname == "words.count_automaton":

        def automaton(args, kwargs):
            length = _arg(args, kwargs, 2, "length")
            marks = _arg(args, kwargs, 3, "marks")
            if marks is None:
                return "words.automaton", length, None
            return "words.automaton_marked", length * (marks + 1), None

        return automaton
    if module == "cases":
        if func in ("f0_value", "f0_prefix", "fm_sequence"):
            layer = "cases.recurrence"
        elif func == "triangle_formula_available":
            layer = "cases.other"
        elif func == "c1_explicit":
            # family 3 is the Q(sqrt(a^2 - 4b)) path
            return lambda args, kwargs: (
                "cases.closed_form_case3"
                if args[0].case_id == 3
                else "cases.closed_form",
                0,
                None,
            )
        else:
            layer = "cases.closed_form"
        return lambda args, kwargs: (layer, 0, None)
    if module == "words":
        layer = "words.other"
    elif module == "sequences":
        layer = qualname
    else:
        layer = module
    return lambda args, kwargs: (layer, 0, None)


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def open_op(self, index: int, label: str) -> None:
        self.op = index
        self._push("bench.op", "bench", 0, label)

    def close_op(self) -> None:
        self._pop()
        self.op = None

    def _push(self, name, layer, work, key) -> None:
        rec = [
            self._stack[-1] if self._stack else None,
            name,
            layer,
            work,
            key,
            time.perf_counter(),
            0.0,
            self.op,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

    def _pop(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def wrap(self, qualname: str, fn):
        classify = _classify(qualname)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qualname, fn, classify)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._push(qualname, *classify(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop()

        return wrapper

    def _wrap_generator(self, qualname, fn, classify):
        # one span per resume, so the consumer's time between items (the
        # CLI printing a word) is not charged to the generator
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if self.op is None:
                return gen
            layer, work, key = classify(args, kwargs)

            def resumed():
                while True:
                    self._push(qualname, layer, work, key)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._pop()
                    yield item

            return resumed()

        return wrapper


def _targets(package) -> list[tuple[str, object]]:
    targets = []
    for name in ("words", "cases", "verification", "identity_checks", "formats"):
        module = getattr(package, name)
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                targets.append((f"{name}.{attr}", value))
    for attr in SEQUENCE_FUNCTIONS:
        targets.append((f"sequences.{attr}", getattr(package.sequences, attr)))
    targets.append(("cli.main", package.cli.main))
    return targets


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding in the package."""
    package = importlib.import_module(PACKAGE)
    modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    for qualname, original in _targets(package):
        wrapper = tracer.wrap(qualname, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _busy(spans, layers) -> float:
    """Time covered by spans of the given layers: each outermost such
    span counts once, nested ones are inside it already."""
    total = 0.0
    for rec in spans:
        if rec[LAYER] not in layers:
            continue
        parent = rec[PARENT]
        while parent is not None and spans[parent][LAYER] not in layers:
            parent = spans[parent][PARENT]
        if parent is None:
            total += rec[END] - rec[START]
    return total


def _self_time(spans, layer) -> float:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    return sum(
        rec[END] - rec[START] - child[i]
        for i, rec in enumerate(spans)
        if rec[LAYER] == layer
    )


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    enum = [
        r for r in spans if r[NAME] == "words.marked_histogram" and r[LAYER] == "words.enum"
    ]
    words = sum(r[WORK] for r in enum)
    distinct = sum({tuple(r[KEY]): r[WORK] for r in enum}.values())
    parallel_words = sum(
        r[WORK]
        for r in spans
        if r[NAME] == "words.marked_histogram" and r[LAYER] == "words.enum_parallel"
    )
    out: dict[str, float] = {}
    out["words.enum.busy_s"] = _busy(spans, {"words.enum"})
    out["words.enum.words"] = words
    out["words.enum.words_per_s"] = _rate(words, out["words.enum.busy_s"])
    out["words.enum.repeat_ratio"] = words / distinct if distinct else 0.0
    out["words.enum_parallel.busy_s"] = _busy(spans, {"words.enum_parallel"})
    out["words.enum_parallel.words_per_s"] = _rate(
        parallel_words, out["words.enum_parallel.busy_s"]
    )
    out["words.predicate.busy_s"] = _busy(spans, {"words.predicate"})
    for layer, unit in (("words.automaton", "step"), ("words.automaton_marked", "cell_step")):
        busy = _busy(spans, {layer})
        work = sum(r[WORK] for r in spans if r[LAYER] == layer)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.{unit}s"] = work
        out[f"{layer}.us_per_{unit}"] = _rate(busy * 1e6, work)
    for name in ("invert_power", "composition_triangle", "lift_triangle"):
        out[f"sequences.{name}.busy_s"] = _busy(spans, {f"sequences.{name}"})
    closed = {"cases.closed_form", "cases.closed_form_case3"}
    out["cases.recurrence.busy_s"] = _busy(spans, {"cases.recurrence"})
    out["cases.closed_form.busy_s"] = _busy(spans, closed)
    out["cases.closed_form.calls"] = sum(1 for r in spans if r[LAYER] in closed)
    out["cases.closed_form_case3.busy_s"] = _busy(spans, {"cases.closed_form_case3"})
    out["identity_checks.busy_s"] = _busy(spans, {"identity_checks"})
    out["verification.self_s"] = _self_time(spans, "verification")
    out["cli.self_s"] = _self_time(spans, "cli")
    out["formats.busy_s"] = _busy(spans, {"formats"})
    return out
