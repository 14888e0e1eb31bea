"""Reverse-mode automatic differentiation on a tape of numpy float64 values.

A :class:`Value` wraps a scalar or a small numpy array and remembers the tape
position that produced it.  It takes part in NumPy's ufuncs (NEP 13): `add`,
`subtract`, `multiply`, `divide`, `negative`, `exp`, `expm1`, `log`, `sqrt`,
`maximum`, `minimum` and `vecdot` (row-wise on the last axis), called on a
Value operand or through its operators, run on the operands' data and tape
the output; any other ufunc, ufunc method (`reduce`, ...) or keyword (`out=`)
gets NotImplemented, so NumPy raises TypeError rather than drop the tape.
Plain NumPy code thus runs "cold" on arrays and "hot" on Values with the
same bits.  `index`, `stack`, `rcumsum` and `lincomb` are not ufunc calls,
so they are functions here.  Every op tapes through :func:`record`, the one
recording path, which returns plain numpy when no operand is taped.

Gradients are pulled with :meth:`Tape.backward`, which allocates its own
adjoint buffer per call; a tape can therefore be differentiated several times
(e.g. once per Jacobian row).  :func:`whole_chain_grad` differentiates a
prelude -> steps -> finale chain on one tape, building the steps once from
the taped shared.  :func:`adjoint_chain_grad` tapes only the prelude: the
same builder makes the steps of the plain shared, which, given an
accumulator, run returning their own transposes, and one reverse sweep over
those cached pullbacks, with no tape and no replay, seeds the prelude's tape.
Training's learned-grid prelude keeps that tape short: it builds the grid
cold and records only its differentiable outputs, the times, the query
times and the table, each as one op whose VJP is a closed form, as the GM
epsilon records its own.  The denoiser's step constants stay plain: its
epsilon is differentiated in its query time.
:func:`state_chain_grad` runs the same sweep over steps its caller built
once, with no prelude and no tape at all: the gradient of the chain's
input is the sweep's adjoint of the initial state.

Hot loops (a step, cold, Jacobian or transposed, the march's divergence
check, the grid checks and builds, the draws, the bound's log-dets and
mean, and a training gradient's prelude, seed and sweep) call ufuncs and
C methods, never the NumPy Python wrappers of fromnumeric.py, _methods.py
and numeric.py: `np.add.reduce` for `np.sum`, `np.maximum.reduce` for
`.max`, `np.logical_and.reduce` for `.all()`, `np.add.accumulate` for
`np.cumsum`, `np.minimum(np.maximum(...))` for `np.clip`, `.shape`,
`.ndim` and `.mT` for `np.shape`, `np.ndim` and `np.swapaxes`,
`np.zeros(shape)` for `np.zeros_like`, :func:`full`, a filled
`np.empty(shape)`, for `np.ones`, and `np.sqrt(np.dot(v, v))` for
`np.linalg.norm`.  On the few-row arrays a step handles, a wrapper costs
2-6x the call it wraps, and the call gives the same bits, since each
replacement runs the same reduction in the same order.  The Jacobian
march stacks x_T over an identity it fills itself, not over `np.eye` with
`np.broadcast_to`; one wrapper from another file remains, once per bound
call rather than per step: the log-det is `np.linalg.slogdet`.  A step
reads rows its grid built once: it calls neither `ndarray.tolist` nor
:func:`index`, and :func:`lincomb` takes its list of Python floats as it
is and, over plain arrays, returns their sum before any tape bookkeeping.
tests/test_hotpaths.py holds the rule.
"""

from __future__ import annotations

from types import FunctionType

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin


class EngineError(ValueError):
    """Malformed tape use: mixed tapes, bad shapes, non-finite adjoints."""


class Value(NDArrayOperatorsMixin):
    # the mixin's operators call the ufuncs; hash stays object's
    __slots__ = ("data", "tape", "idx")
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Value({self.data!r}, op={self.idx})"

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """NEP 13: a `_VJPS` ufunc runs on the operands' data and tapes its
        output, `equal` and `not_equal` compare identities, as object's ==
        does, and any other call returns NotImplemented (a TypeError)."""
        if method != "__call__" or kwargs:
            return NotImplemented
        make = _VJPS.get(ufunc)
        if make is None:
            if ufunc is np.equal or ufunc is np.not_equal:
                return (inputs[0] is inputs[1]) is (ufunc is np.equal)
            return NotImplemented
        live = [type(x) is Value for x in inputs]
        data = [x.data if lv else x for x, lv in zip(inputs, live)]
        try:
            out = ufunc(*data)
        except ValueError:
            raise EngineError(f"{ufunc.__name__}: shape mismatch " + " vs ".join(
                str(np.shape(d)) for d in data)) from None
        return record(out, inputs, make(data, out, live), ufunc.__name__)

    def __getitem__(self, i):
        return index(self, i)


def data_of(x):
    return x.data if type(x) is Value else x


def full(shape, value):
    """np.full(shape, value) without NumPy's Python wrapper."""
    out = np.empty(shape)
    out.fill(value)
    return out


def _reduce(g, ref):
    """Sum an adjoint back onto the shape of the operand it broadcast from
    (both are numpy values: a Value's data is never a Python float)."""
    shape = ref.shape
    if g.shape == shape:
        return g
    if not shape:
        return np.add.reduce(g, axis=None)
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + k for k, n in enumerate(shape)
                                      if n == 1)
    return np.add.reduce(g, axis=axes).reshape(shape)


class Tape:
    __slots__ = ("_parents", "_vjps", "_names")

    def __init__(self):
        self._parents = []
        self._vjps = []
        self._names = []

    def __len__(self):
        return len(self._vjps)

    def leaf(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.float64(arr)
        return self._record(arr, (), None, "leaf")

    def _record(self, data, parents, vjp, name):
        self._parents.append(parents)
        self._vjps.append(vjp)
        self._names.append(name)
        v = Value.__new__(Value)
        v.data = data
        v.tape = self
        v.idx = len(self._vjps) - 1
        return v

    def backward(self, seeds, leaves):
        """Pull adjoints from seeded outputs back to `leaves`.

        Args:
            seeds: iterable of (Value, adjoint) pairs; adjoint shape must match.
            leaves: Values whose gradients are wanted.

        Returns:
            List of numpy gradients aligned with `leaves` (zeros when a leaf
            does not influence any seeded output).
        """
        adj = [None] * len(self._vjps)
        top = -1
        for v, s in seeds:
            if not isinstance(v, Value) or v.tape is not self:
                raise EngineError("seed value does not belong to this tape")
            s = np.asarray(s, dtype=np.float64)
            if s.shape != getattr(v.data, "shape", ()):
                raise EngineError("seed adjoint shape mismatch")
            adj[v.idx] = s if adj[v.idx] is None else adj[v.idx] + s
            top = max(top, v.idx)
        for i in range(top, -1, -1):
            a = adj[i]
            if a is None:
                continue
            if not np.logical_and.reduce(np.isfinite(a), axis=None):
                raise EngineError(f"non-finite adjoint at op {i} ({self._names[i]})")
            vjp = self._vjps[i]
            if vjp is None:
                continue
            for p, g in zip(self._parents[i], vjp(a)):
                if p is None or g is None:
                    continue
                adj[p] = g if adj[p] is None else adj[p] + g
        out = []
        for leaf in leaves:
            if not isinstance(leaf, Value) or leaf.tape is not self:
                raise EngineError("gradient target does not belong to this tape")
            g = adj[leaf.idx]
            out.append(np.zeros(leaf.data.shape) if g is None else g)
        return out


# ---------------------------------------------------------------- primitives


def _each(*ds):
    """A ufunc's VJP maker from one derivative per operand, d(adj, *data,
    out), summed back onto the operand's shape; never a constant's."""
    def make(data, out, live):
        return lambda adj: tuple(
            _reduce(d(adj, *data, out), x) if lv else None
            for d, x, lv in zip(ds, data, live))
    return make


def _pick(tie, strict):
    """maximum's (tie `>=`, strict `>`) or minimum's VJP maker: the adjoint
    goes to the operand taken, at a tie to the first Value."""
    def make(data, out, live):
        x, y = data
        take = (tie if live[0] else strict)(x, y)
        return lambda adj: (_reduce(adj * take, x) if live[0] else None,
                            _reduce(adj * ~take, y) if live[1] else None)
    return make


# the ufuncs a Value tapes, each with its VJP maker
_VJPS = {
    np.add: _each(lambda g, x, y, o: g, lambda g, x, y, o: g),
    np.subtract: _each(lambda g, x, y, o: g, lambda g, x, y, o: -g),
    np.multiply: _each(lambda g, x, y, o: g * y, lambda g, x, y, o: g * x),
    np.divide: _each(lambda g, x, y, o: g / y,
                     lambda g, x, y, o: -g * x / (y * y)),
    np.negative: _each(lambda g, x, o: -g),
    np.exp: _each(lambda g, x, o: g * o),
    np.expm1: _each(lambda g, x, o: g * np.exp(x)),
    np.log: _each(lambda g, x, o: g * (1.0 / x)),
    np.sqrt: _each(lambda g, x, o: g * (0.5 / o)),
    np.maximum: _pick(np.greater_equal, np.greater),
    np.minimum: _pick(np.less_equal, np.less),
    # row-wise over the last axis, rounding each row as a 1-D np.dot does
    np.vecdot: _each(lambda g, x, y, o: g[..., None] * y,
                     lambda g, x, y, o: g[..., None] * x),
}


def stack(xs):
    """Pack parts along a new last axis (parents may mix Values and
    constants); K scalars give a (K,) vector, K (B,) rows (B, K).  Each part
    is a scalar or has the shape of the largest part."""
    parts = [data_of(x) for x in xs]
    out = np.empty(max((getattr(p, "shape", ()) for p in parts), key=len)
                   + (len(parts),))
    for k, p in enumerate(parts):
        out[..., k] = p
    live = [type(x) is Value for x in xs]

    def vjp(adj):
        return tuple(_reduce(adj[..., k], p) if lv else None
                     for k, (lv, p) in enumerate(zip(live, parts)))

    return record(out, xs, vjp, "stack")


def index(x, i):
    if type(x) is not Value:
        return x[i]
    xd = x.data

    def vjp(adj):
        g = np.zeros(xd.shape)
        parts = i if type(i) is tuple else (i,)
        if any(isinstance(k, (np.ndarray, list)) for k in parts):
            np.add.at(g, i, adj)  # an array index may repeat: adjoints add
        else:
            g[i] = adj
        return (g,)

    return record(xd[i], (x,), vjp, "index")


def lincomb(row, arrays):
    """sum_j row[j] * arrays[j] for k arrays of one shape, accumulated left
    to right.  row is a list of k Python floats, used as it is (a grid's
    prebuilt step row), or a (k,) array or Value.  With no Value among the
    row and the arrays it returns the sum before any tape bookkeeping."""
    if type(row) is list:
        cs = row
        if len(cs) != len(arrays):
            raise EngineError(f"lincomb: row of {len(cs)} floats for "
                              f"{len(arrays)} arrays")
    else:
        rd = data_of(row)
        if rd.shape != (len(arrays),):
            raise EngineError(f"lincomb: row shape {rd.shape} for "
                              f"{len(arrays)} arrays")
        cs = rd.tolist()  # one C call, then Python floats, not NumPy scalars
    if type(row) is not Value:
        for a in arrays:
            if type(a) is Value:
                break
        else:  # nothing taped: the arithmetic alone
            return _weighted_sum(cs, arrays)
    live_row = type(row) is Value
    live = [type(a) is Value for a in arrays]
    parts = [data_of(a) for a in arrays]
    out = _weighted_sum(cs, parts)

    def vjp(adj):
        g_row = np.array([np.vdot(adj, p) for p in parts]) if live_row else None
        return [g_row] + [c * adj if lv else None for c, lv in zip(cs, live)]

    return record(out, (row, *arrays), vjp, "lincomb")


def _weighted_sum(cs, parts):
    out = cs[0] * parts[0]
    for k in range(1, len(cs)):
        out = out + cs[k] * parts[k]
    return out


def rcumsum(x):
    """The n + 1 suffix sums of a vector of n, the empty one last:
    out[i] = sum_{j >= i} x[j], so out[n] = 0 exactly."""
    xd = data_of(x)
    out = np.zeros(xd.shape[0] + 1)
    np.add.accumulate(xd[::-1], out=out[-2::-1])
    return record(out, (x,), lambda adj: (np.add.accumulate(adj[:-1]),),
                  "rcumsum")


def record(out, parents, vjp, name):
    """Tape a precomputed output as one op over `parents`: the one recording
    path of every op (only it and :meth:`Tape.leaf` touch a tape).

    `vjp(adj)` returns one gradient per parent, shaped like it (None where
    the parent is a constant).  It holds the parents' data and which were
    Values, never a Value: that would tie the Value's tape into a reference
    cycle.  With no Value among `parents`, `out` comes back untouched;
    parents on two tapes raise :class:`EngineError`.
    """
    tape, idx = None, []
    for p in parents:
        if type(p) is Value:
            if tape is None:
                tape = p.tape
            elif p.tape is not tape:
                raise EngineError("operands recorded on different tapes")
            idx.append(p.idx)
        else:
            idx.append(None)
    if tape is None:
        return out
    return tape._record(out, tuple(idx), vjp, name)


# ---------------------------------------------------- chain differentiation


class ChainGradResult:
    """Loss, per-leaf gradients, and the activation-retention accounting.

    `loss` is a float for a scalar finale and an array for a per-row one.
    `retained_arrays` may be given as a function that counts them; it runs
    when the count is first read, so a caller that never reads it pays
    nothing for it.
    """

    __slots__ = ("loss", "grads", "_retained", "n_steps")

    def __init__(self, loss, grads, retained_arrays, n_steps):
        self.loss = loss
        self.grads = grads
        self._retained = retained_arrays
        self.n_steps = n_steps

    @property
    def retained_arrays(self):
        if callable(self._retained):
            self._retained = self._retained()
        return self._retained

    @property
    def retained_per_step(self):
        return self.retained_arrays / self.n_steps if self.n_steps else 0.0


def _ones_like(loss):
    return full(getattr(data_of(loss), "shape", ()), 1.0)


def _loss_value(loss):
    loss = data_of(loss)
    return float(loss) if getattr(loss, "ndim", 0) == 0 else np.asarray(loss)


def whole_chain_grad(leaves, prelude, steps, finale):
    """Differentiate prelude -> steps -> finale on a single tape.

    Args:
        leaves: dict name -> numpy array/scalar, the differentiation targets.
        prelude: fn(env dict of Values) -> (shared tuple, initial state tuple).
        steps: fn(shared) -> the step fns state -> state, run once, on the
            taped shared, for the whole tape.
        finale: fn(state) -> scalar, or a per-row loss vector whose entries
            are all seeded with 1 (each row's gradient is then the gradient
            of its own loss when rows do not interact).

    Returns:
        ChainGradResult with grads keyed like `leaves`.
    """
    tape = Tape()
    env = {k: tape.leaf(v) for k, v in leaves.items()}
    shared, state = prelude(env)
    chain = steps(shared)
    for step in chain:
        state = step(state)
    loss = finale(state)
    names = list(leaves)
    grads = tape.backward([(loss, _ones_like(loss))], [env[k] for k in names])
    return ChainGradResult(_loss_value(loss), dict(zip(names, grads)),
                           retained_arrays=len(tape), n_steps=len(chain))


def adjoint_chain_grad(leaves, prelude, steps, finale):
    """Like :func:`whole_chain_grad`, with only the prelude on a tape.

    The prelude runs once, taped; its Values mark which shared entries are
    differentiable, and the data of its outputs feed the forward pass.
    The builder steps runs once, on that plain shared, and its steps and
    finale are called with acc: each runs on plain arrays as a transpose
    pair, step(state, acc) -> (state', back), and finale(state, acc) ->
    (loss, back).  back(adj') returns the adjoints of the segment's input
    and adds its gradient of shared[j] into acc[j], a zero array for each
    differentiable shared[j].  :func:`_sweep` runs them, and the prelude's
    tape is then seeded with acc and the adjoint of its initial state.
    `retained_arrays` counts the distinct arrays the cached backs hold
    (counted when first read, which keeps them until then).
    """
    tape = Tape()
    env = {k: tape.leaf(v) for k, v in leaves.items()}
    shared_p, state_p = prelude(env)
    shared = tuple(data_of(s) for s in shared_p)
    acc = {j: np.zeros(shared[j].shape) for j, s in enumerate(shared_p)
           if type(s) is Value}
    chain = steps(shared)
    loss, adj, backs = _sweep(chain, finale,
                              tuple(data_of(s) for s in state_p), acc)
    seeds = [(shared_p[j], g) for j, g in acc.items()]
    seeds += [(s, a) for s, a in zip(state_p, adj) if type(s) is Value]
    names = list(leaves)
    grads = tape.backward(seeds, [env[k] for k in names])
    return ChainGradResult(_loss_value(loss), dict(zip(names, grads)),
                           retained_arrays=lambda: _held_arrays(backs),
                           n_steps=len(chain))


def state_chain_grad(name, state, chain, finale):
    """Differentiate prebuilt steps -> finale in state[0] alone, with no
    tape: :func:`_sweep` with an empty acc, whose adjoint of state[0] is
    grads[name] (EngineError naming `name` if it is not finite); the other
    slots, zeroed history, carry none.  Counted as
    :func:`adjoint_chain_grad` counts its retained arrays."""
    loss, adj, backs = _sweep(chain, finale, state, {})
    grad = adj[0]
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        raise EngineError(f"non-finite adjoint of {name}")
    return ChainGradResult(_loss_value(loss), {name: grad},
                           retained_arrays=lambda: _held_arrays(backs),
                           n_steps=len(chain))


def _sweep(chain, finale, state, acc):
    """The forward pass of the transpose pairs (chain's steps, finale
    last) from the plain `state`, caching each back, then one reverse
    sweep over them from a ones seed.  Returns (loss, the adjoints of
    state, the backs)."""
    backs = []
    for seg in (*chain, finale):
        state, back = seg(state, acc)
        backs.append(back)
    adj = _ones_like(state)
    for back in reversed(backs):
        adj = back(adj)
    return state, adj, backs


def _held_arrays(fns):
    """Distinct numpy arrays that the closures fns reach through their
    cells, the tuples there and the closures those hold."""
    held, seen = set(), set()
    todo = list(fns)
    for obj in todo:  # grows as it goes
        kind = type(obj)
        if kind is np.ndarray:
            held.add(id(obj))
        elif kind is tuple:
            todo += obj
        elif kind is FunctionType and obj.__closure__ and id(obj) not in seen:
            seen.add(id(obj))
            todo += [c.cell_contents for c in obj.__closure__]
    return len(held)
