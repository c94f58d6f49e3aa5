"""Span and counter recorder for a traced job.

`install` wraps the public functions of each torelli module at the names its
callers look up (the cli's imported names, a module's own globals, the
`WeightedPolynomial` methods), so the program itself carries no tracing.
Spans are aggregated as they close, per span name: calls, inclusive time
(outermost spans only, so recursion is not counted twice) and self time
(the span minus its child spans).
"""

from __future__ import annotations

import importlib
import time
from typing import Callable


class Recorder:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.open: dict[str, int] = {}
        self.stats: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        """fn timed as span `name`; hook(recorder, args, result) runs after
        the span closes, with the caller's span on top of the stack."""
        stack, open_, stats = self.stack, self.open, self.stats
        stats.setdefault(name, [0, 0.0, 0.0])
        open_.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                open_[name] -= 1
                entry = stats[name]
                entry[0] += 1
                entry[2] += elapsed - frame[1]
                if not open_[name]:
                    entry[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": int(c), "incl_s": incl, "self_s": own}
                for name, (c, incl, own) in self.stats.items()
            },
            "counters": dict(self.counters),
        }


def _under_oracle(key: str, amount: Callable) -> Callable:
    def hook(rec: Recorder, args, result) -> None:
        if rec.parent() == "invariants.oracle":
            rec.count(key, amount(args, result))

    return hook


def _count(key: str, amount: Callable) -> Callable:
    def hook(rec: Recorder, args, result) -> None:
        rec.count(key, amount(args, result))

    return hook


_terms = _count("lclasses.output_terms", lambda args, result: len(result.terms))

# (module, attribute, span, hook): every place a traced call is looked up
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("torelli.cli", "brute_force_invariant_dim", "invariants.oracle", None),
    ("torelli.invariants", "brute_force_invariant_dim", "invariants.oracle", None),
    ("torelli.cli", "piece_dimension", "invariants.piece_dimension", None),
    (
        "torelli.invariants",
        "piece_dimension",
        "invariants.piece_dimension",
        _under_oracle("invariants.piece_dim_sum", lambda args, result: result),
    ),
    ("torelli.cli", "invariant_crosscheck", "invariants.crosscheck", None),
    ("torelli.invariants", "stable_invariant_series", "invariants.stable_series", None),
    (
        "torelli.invariants",
        "kernel_basis",
        "linalg.kernel",
        _count("linalg.kernel_entries", lambda args, result: len(args[0]) * len(args[0][0])),
    ),
    ("torelli.borel", "invert_fraction_matrix", "linalg.inverse", None),
    ("torelli.cli", "sample_group_element", "groups.sample", None),
    (
        "torelli.invariants",
        "sample_group_element",
        "groups.sample",
        _under_oracle("invariants.samples", lambda args, result: 1),
    ),
    ("torelli.invariants", "is_in_group", "groups.membership", None),
    ("torelli.groups", "is_in_group", "groups.membership", None),
    ("torelli.lclasses", "multiplicative_sequence", "lclasses.sequence", None),
    ("torelli.cli", "l_polynomial", "lclasses.polynomial", _terms),
    ("torelli.cli", "l_hat_polynomial", "lclasses.polynomial", _terms),
    ("torelli.lclasses", "l_polynomial", "lclasses.polynomial", None),
    ("torelli.cli", "p_in_terms_of_l", "lclasses.inversion", _terms),
    ("torelli.lclasses", "p_in_terms_of_l", "lclasses.inversion", None),
    ("torelli.cli", "format_polynomial", "graded.format", None),
    ("torelli.cli", "mt_series", "mt.series", None),
    ("torelli.cli", "torelli_invariant_series", "mt.series", None),
    ("torelli.cli", "kappa_ll_series", "mt.series", None),
    ("torelli.mt", "kappa_ll_series", "mt.series", None),
    ("torelli.mt", "mt_generators", "mt.generators", _count("mt.generators", lambda args, result: len(result))),
    ("torelli.mt", "kappa_ll_pairs", "mt.pairs", None),
    ("torelli.cli", "root_system", "borel.roots", None),
    ("torelli.cli", "borel_constant_rep", "borel.constant", None),
    ("torelli.borel", "is_positive_combination", "borel.cone", None),
)


def install() -> Recorder:
    """Wrap every traced name; returns the recorder that collects them."""
    rec = Recorder()
    for module_name, attr, span, hook in SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attr, rec.wrap(getattr(module, attr), span, hook))

    # the generator list may be a one-shot iterator: count it as it is built
    for module_name in ("torelli.invariants", "torelli.mt"):
        module = importlib.import_module(module_name)
        series = rec.wrap(module.free_graded_commutative_series, "graded.series")

        def counted_series(generators, max_degree, _series=series):
            generators = list(generators)
            rec.count("graded.series_generators", len(generators))
            return _series(generators, max_degree)

        module.free_graded_commutative_series = counted_series

    graded = importlib.import_module("torelli.graded")
    poly = graded.WeightedPolynomial
    poly.mul = rec.wrap(poly.mul, "graded.poly_mul")
    poly.substitute = rec.wrap(poly.substitute, "graded.substitute")

    borel = importlib.import_module("torelli.borel")
    exterior = borel.weights_of_exterior_power

    def counted_etas(rs, q):
        for eta in exterior(rs, q):
            rec.count("borel.etas")
            yield eta

    borel.weights_of_exterior_power = counted_etas
    return rec
