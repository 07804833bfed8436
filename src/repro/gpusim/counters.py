"""rocprof/ncu/GTPin-style operation counters (paper Section V-B).

FLOPs follow the paper's convention: FMA counts as two operations,
transcendental operations count as one.  Memory traffic, warp shuffles,
and atomics are tracked separately so the warp-splitting ablation can
compare traffic profiles, not just FLOPs.

FLOPs are counted, not declared: :class:`CountingArray` runs a function
on arrays that book every operation applied to them, so the count is
that of the code that runs (``gpusim.warp`` counts its pair kernels, the
``core`` pair functions, this way).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


@dataclass
class OpCounters:
    """Accumulated device operation counts for one kernel / run."""

    fp32_add: int = 0
    fp32_mul: int = 0
    fp32_fma: int = 0
    fp32_transcendental: int = 0
    global_load_bytes: int = 0
    global_store_bytes: int = 0
    shuffles: int = 0
    atomics: int = 0
    active_lane_ops: int = 0  # lanes doing useful work
    issued_lane_ops: int = 0  # lanes issued (incl. padding divergence)

    @property
    def flops(self) -> int:
        """Paper convention: FMA = 2 ops, transcendental = 1 op."""
        return (
            self.fp32_add
            + self.fp32_mul
            + 2 * self.fp32_fma
            + self.fp32_transcendental
        )

    @property
    def bytes_moved(self) -> int:
        return self.global_load_bytes + self.global_store_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of global memory traffic."""
        if self.bytes_moved == 0:
            return float("inf")
        return self.flops / self.bytes_moved

    @property
    def lane_efficiency(self) -> float:
        """Useful / issued lanes (1.0 = no divergence or padding waste)."""
        if self.issued_lane_ops == 0:
            return 1.0
        return self.active_lane_ops / self.issued_lane_ops

    def book(self, ops: "OpCounters", times: int) -> None:
        """Add ``times`` x the FLOP counts of ``ops`` (one lane's count of
        a kernel stage, booked once per lane that runs it)."""
        for f in _FLOP_FIELDS:
            setattr(self, f, getattr(self, f) + times * getattr(ops, f))

    def merge(self, other: "OpCounters") -> "OpCounters":
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    def copy(self) -> "OpCounters":
        """Independent snapshot of the current counts."""
        return OpCounters(
            **{f: getattr(self, f) for f in self.__dataclass_fields__}
        )

    def delta(self, baseline: "OpCounters") -> "OpCounters":
        """Counts accumulated since ``baseline`` (per-launch attribution:
        snapshot with :meth:`copy` before a launch, ``delta`` after)."""
        return OpCounters(**{
            f: getattr(self, f) - getattr(baseline, f)
            for f in self.__dataclass_fields__
        })

    def snapshot(self) -> dict:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["flops"] = self.flops
        return d


_FLOP_FIELDS = ("fp32_add", "fp32_mul", "fp32_fma", "fp32_transcendental")

#: the counter each ufunc books one operation per output element into;
#: ``None`` for operations that cost no FLOP (comparisons, selects, sign
#: flips, copies).  A ufunc missing here raises rather than counting 0.
_UFUNC_FIELD = {
    **dict.fromkeys(("add", "subtract"), "fp32_add"),
    **dict.fromkeys(("multiply", "divide", "true_divide", "reciprocal",
                     "square"), "fp32_mul"),
    **dict.fromkeys(("sqrt", "cbrt", "exp", "expm1", "log", "log1p", "sin",
                     "cos", "tan", "arctan2", "erf", "erfc"),
                    "fp32_transcendental"),
    **dict.fromkeys(("greater", "greater_equal", "less", "less_equal",
                     "equal", "not_equal", "logical_and", "logical_or",
                     "logical_not", "logical_xor", "maximum", "minimum",
                     "fmax", "fmin", "clip", "absolute", "negative",
                     "positive", "sign", "isnan", "isfinite", "isinf"),
                    None),
}

#: NumPy functions that move or select data: no FLOP.  A function missing
#: here and in ``_FUNCTION_OPS`` raises rather than counting 0.
_FREE_FUNCTIONS = frozenset((
    "where", "clip", "take", "concatenate", "stack", "vstack", "hstack",
    "column_stack", "broadcast_to",
    "broadcast_arrays", "zeros_like", "ones_like", "empty_like",
    "full_like", "copyto", "reshape", "transpose", "moveaxis",
    "expand_dims", "squeeze", "shape", "ndim", "size", "result_type",
    "can_cast", "copy", "nonzero", "flatnonzero", "any", "all",
))


def _power_ops(exponent) -> OpCounters:
    """``x**k``: ``|k| - 1`` multiplies for an integer ``k`` (one more,
    a divide, when it is negative); one transcendental otherwise."""
    k = np.asarray(exponent)
    if k.ndim == 0 and float(k) == int(k):
        k = int(k)
        return OpCounters(fp32_mul=max(abs(k) - 1, 0) + (k < 0))
    return OpCounters(fp32_transcendental=1)


def _ufunc_ops(ufunc, inputs) -> OpCounters:
    """The operations of one ufunc call per output element."""
    name = ufunc.__name__
    if name in ("power", "float_power"):
        return _power_ops(inputs[1])
    if name not in _UFUNC_FIELD:
        raise TypeError(f"no FLOP weight for ufunc {name!r}")
    field = _UFUNC_FIELD[name]
    return OpCounters(**({} if field is None else {field: 1}))


def _einsum_ops(args, result) -> OpCounters:
    """``K (n - 1)`` multiplies and ``K - 1`` adds per output element of
    an ``n``-operand contraction over ``K`` summed index values."""
    spec, *operands = args
    inputs, out = spec.replace(" ", "").split("->")
    sizes = {}
    for term, op in zip(inputs.split(","), operands):
        sizes.update(zip(term, np.shape(op)))
    k = prod(sizes[c] for c in set(sizes) - set(out))
    n = np.size(result)
    return OpCounters(fp32_mul=n * k * (len(operands) - 1),
                      fp32_add=n * (k - 1))


def _sum_ops(args, result) -> OpCounters:
    return OpCounters(fp32_add=np.size(args[0]) - np.size(result))


#: NumPy functions with arithmetic of their own: total operations
_FUNCTION_OPS = {"einsum": _einsum_ops, "sum": _sum_ops}


def _plain(x):
    """``x`` with every ``CountingArray`` in it (also inside tuples, lists
    and dicts) viewed as a plain ndarray."""
    if isinstance(x, CountingArray):
        return x.view(np.ndarray)
    if isinstance(x, (tuple, list)):
        return type(x)(_plain(v) for v in x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _counting(x, tally):
    """Float arrays in ``x`` as ``CountingArray``s booking into ``tally``."""
    if isinstance(x, tuple):
        return tuple(_counting(v, tally) for v in x)
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        out = x.view(CountingArray)
        out.tally = tally
        return out
    return x


class CountingArray(np.ndarray):
    """A float array whose arithmetic books its own weighted FLOPs.

    Each ufunc or NumPy function applied to it runs on the plain data and
    adds its operations to ``tally`` (an :class:`OpCounters`): add and
    subtract one ``fp32_add`` per output element, multiply and divide one
    ``fp32_mul``, an integer power ``x**k`` ``|k| - 1`` multiplies,
    ``sqrt``/``exp``/``erfc`` and non-integer powers one
    ``fp32_transcendental``; comparisons, selects (``where``, ``clip``,
    ``maximum``) and sign flips none.  Results come back counting into the
    same tally.  An operation with no weight raises ``TypeError``: a count
    is never silently short.  ``np.asarray`` drops the subclass, so a
    function the count must see through takes its inputs with
    ``np.asanyarray``.
    """

    tally: OpCounters

    def __new__(cls, data, tally: OpCounters):
        return _counting(np.array(data, dtype=np.float64), tally)

    def __array_finalize__(self, obj):
        self.tally = getattr(obj, "tally", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        kwargs = _plain(kwargs)
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        if method == "__call__":
            first = result[0] if isinstance(result, tuple) else result
            n = np.size(first)
        elif method == "reduce":
            n = np.size(inputs[0]) - np.size(result)
        else:
            raise TypeError(f"no FLOP weight for {ufunc.__name__}.{method}")
        self.tally.book(_ufunc_ops(ufunc, inputs), n)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return _counting(result, self.tally)

    def __array_function__(self, func, types, args, kwargs):
        name = func.__name__
        if name not in _FREE_FUNCTIONS and name not in _FUNCTION_OPS:
            raise TypeError(f"no FLOP rule for numpy.{name}")
        plain_args = _plain(args)
        result = func(*plain_args, **_plain(kwargs))
        if name in _FUNCTION_OPS:
            self.tally.book(_FUNCTION_OPS[name](plain_args, result), 1)
        return _counting(result, self.tally)


def count_flops(fn, *args, lanes: int):
    """``(result, ops)``: ``fn(*args)`` run once with every float array of
    ``args`` (dict values included) a :class:`CountingArray`, and its
    operations per lane, for inputs that hold ``lanes`` lanes."""
    tally = OpCounters()

    def wrap(x):
        if isinstance(x, dict):
            return {k: wrap(v) for k, v in x.items()}
        return _counting(x, tally)

    result = fn(*(wrap(a) for a in args))
    per_lane = OpCounters()
    for f in _FLOP_FIELDS:
        total = getattr(tally, f)
        if total % lanes:
            raise ValueError(
                f"{total} {f} over {lanes} lanes: not a per-lane count")
        setattr(per_lane, f, total // lanes)
    return result, per_lane
