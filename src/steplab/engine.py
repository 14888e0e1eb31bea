"""Reverse-mode automatic differentiation on a tape of numpy float64 values.

A :class:`Value` wraps a scalar or a small numpy array and remembers the tape
position that produced it.  Operations are provided both as module functions
(`exp`, `dot`, `stack`, ...) and as operators on :class:`Value`.  Operands
broadcast as in numpy, so one code path runs a single row of shape (d,) or a
batch of shape (B, d); the row-wise ops (`dot`, `stack`, `logsumexp`) act on
the last axis.  Every function also accepts plain floats/arrays, so the
same code path can run "hot" (taped) or "cold" (plain numpy) with
bit-identical results: an op makes the same numpy calls either way, and with
no taped operand it returns the plain numpy value before it builds a VJP.
Otherwise it tapes its output and VJP through :func:`record`, the one
recording path.

Gradients are pulled with :meth:`Tape.backward`, which allocates its own
adjoint buffer per call; a tape can therefore be differentiated several times
(e.g. once per Jacobian row).  For long solver chains,
:func:`checkpointed_chain_grad` stores only the per-step states and replays
each step on a throwaway tape during the backward sweep, keeping retained
activations per step constant in chain length.  The finale is the last
replayed segment, and every replay is checked bitwise against the forward.
"""

from __future__ import annotations

import numpy as np


class EngineError(ValueError):
    """Malformed tape use: mixed tapes, bad shapes, non-finite adjoints."""


class Value:
    __slots__ = ("data", "tape", "idx")

    # numpy operands defer to the reflected operators below instead of
    # wrapping the Value in an object array, which would drop the tape
    __array_ufunc__ = None

    def __repr__(self):
        return f"Value({self.data!r}, op={self.idx})"

    # arithmetic operators; reflected variants cover raw-op-Value
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, i):
        return index(self, i)


def data_of(x):
    return x.data if type(x) is Value else x


def _reduce(g, ref):
    """Sum an adjoint back onto the shape of the operand it broadcast from
    (both are numpy values: a Value's data is never a Python float)."""
    shape = ref.shape
    if g.shape == shape:
        return g
    if not shape:
        return np.sum(g)
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + k for k, n in enumerate(shape)
                                      if n == 1)
    return np.sum(g, axis=axes).reshape(shape)


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
            if s.shape != np.shape(v.data):
                raise EngineError("seed adjoint shape mismatch")
            adj[v.idx] = s if adj[v.idx] is None else adj[v.idx] + s
            top = max(top, v.idx)
        for i in range(top, -1, -1):
            a = adj[i]
            if a is None:
                continue
            if not np.isfinite(a).all():
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
            out.append(np.zeros_like(leaf.data) if g is None else g)
        return out

    def gradient(self, output, leaves):
        if np.ndim(data_of(output)) != 0:
            raise EngineError("gradient output must be a scalar")
        return self.backward([(output, np.float64(1.0))], leaves)


# ---------------------------------------------------------------- primitives


def _unary(x, fwd, dfn, name):
    # the most frequent ops return before building a closure when cold
    if type(x) is not Value:
        return fwd(x)
    xd = x.data
    out = fwd(xd)
    return record(out, (x,), lambda adj: (adj * dfn(xd, out),), name)


def _binary(a, b, fwd, da, db, name):
    live_a, live_b = type(a) is Value, type(b) is Value
    ad = a.data if live_a else a
    bd = b.data if live_b else b
    try:
        out = fwd(ad, bd)
    except ValueError:
        raise EngineError(f"{name}: shape mismatch {np.shape(ad)} vs "
                          f"{np.shape(bd)}") from None
    if not (live_a or live_b):
        return out

    def vjp(adj):
        return (_reduce(da(adj, ad, bd), ad) if live_a else None,
                _reduce(db(adj, ad, bd), bd) if live_b else None)

    return record(out, (a, b), vjp, name)


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b):
    return _binary(a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y), "div")


def neg(x):
    return _unary(x, np.negative, lambda xd, out: -1.0, "neg")


def exp(x):
    return _unary(x, np.exp, lambda xd, out: out, "exp")


def expm1(x):
    return _unary(x, np.expm1, lambda xd, out: np.exp(xd), "expm1")


def log(x):
    return _unary(x, np.log, lambda xd, out: 1.0 / xd, "log")


def sqrt(x):
    return _unary(x, np.sqrt, lambda xd, out: 0.5 / out, "sqrt")


def clamp(x, lo, hi):
    """Clip to [lo, hi]; gradient passes through wherever lo <= x <= hi."""

    def dfn(xd, out):
        return ((xd >= lo) & (xd <= hi)).astype(np.float64)

    return _unary(x, lambda v: np.clip(v, lo, hi), dfn, "clamp")


def vsum(x):
    """Sum of all entries."""
    if type(x) is not Value:
        return np.sum(x)
    xd = x.data
    return record(np.sum(xd), (x,), lambda adj: (np.full_like(xd, adj),), "sum")


def dot(a, b):
    """Row-wise inner product over the last axis: (..., d) x (..., d) -> (...)."""
    ad, bd = data_of(a), data_of(b)
    try:
        # np.vecdot rounds each row exactly as a 1-D np.dot does
        out = np.vecdot(ad, bd)
    except ValueError:
        raise EngineError("dot: shape mismatch") from None
    live_a, live_b = type(a) is Value, type(b) is Value
    if not (live_a or live_b):
        return out

    def vjp(adj):
        col = np.asarray(adj)[..., None]
        return (_reduce(col * bd, ad) if live_a else None,
                _reduce(col * ad, bd) if live_b else None)

    return record(out, (a, b), vjp, "dot")


def logsumexp(x):
    """log sum exp over the last axis."""
    # the max shift is held constant; the derivative is exact regardless
    xd = data_of(x)
    m = xd.max(axis=-1, keepdims=True)
    out = m[..., 0] + np.log(np.exp(xd - m).sum(axis=-1))
    if type(x) is not Value:
        return out

    def vjp(adj):
        return (np.asarray(adj)[..., None]
                * np.exp(xd - np.asarray(out)[..., None]),)

    return record(out, (x,), vjp, "logsumexp")


def softmax(x):
    xd = data_of(x)
    s = exp(sub(x, np.max(xd)))
    return div(s, vsum(s))


def stack(xs):
    """Pack parts along a new last axis (parents may mix Values and
    constants); K scalars give a (K,) vector, K (B,) rows (B, K).  Each part
    is a scalar or has the shape of the largest part."""
    parts = [data_of(x) for x in xs]
    out = np.empty(max((np.shape(p) for p in parts), key=len) + (len(parts),))
    for k, p in enumerate(parts):
        out[..., k] = p
    live = [type(x) is Value for x in xs]
    if not any(live):
        return out

    def vjp(adj):
        return tuple(_reduce(adj[..., k], p) if lv else None
                     for k, (lv, p) in enumerate(zip(live, parts)))

    return record(out, xs, vjp, "stack")


def index(x, i):
    if type(x) is not Value:
        return x[i]
    xd = x.data

    def vjp(adj):
        g = np.zeros_like(xd)
        parts = i if type(i) is tuple else (i,)
        if any(isinstance(k, (np.ndarray, list)) for k in parts):
            np.add.at(g, i, adj)  # an array index may repeat: adjoints add
        else:
            g[i] = adj
        return (g,)

    return record(xd[i], (x,), vjp, "index")


def lincomb(row, arrays):
    """sum_j row[j] * arrays[j] for a (k,) row and k arrays of one shape,
    accumulated left to right."""
    live_row = type(row) is Value
    live = [type(a) is Value for a in arrays]
    cold = not (live_row or any(live))
    rd = data_of(row)
    parts = arrays if cold else [data_of(a) for a in arrays]
    if np.shape(rd) != (len(parts),):
        raise EngineError(f"lincomb: row shape {np.shape(rd)} for "
                          f"{len(parts)} arrays")
    out = rd[0] * parts[0]
    for c, p in zip(rd[1:], parts[1:]):
        out = out + c * p
    if cold:
        return out

    def vjp(adj):
        g_row = np.array([np.vdot(adj, p) for p in parts]) if live_row else None
        return [g_row] + [c * adj if lv else None for c, lv in zip(rd, live)]

    return record(out, (row, *arrays), vjp, "lincomb")


def rcumsum(x):
    """Suffix sums: out[i] = sum_{j >= i} x[j]."""
    xd = data_of(x)
    out = np.cumsum(xd[::-1])[::-1]
    if type(x) is not Value:
        return out
    return record(out, (x,), lambda adj: (np.cumsum(adj),), "rcumsum")


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
    """

    __slots__ = ("loss", "grads", "retained_arrays", "retained_per_step", "n_steps")

    def __init__(self, loss, grads, retained_arrays, n_steps):
        self.loss = loss
        self.grads = grads
        self.retained_arrays = retained_arrays
        self.n_steps = n_steps
        self.retained_per_step = retained_arrays / n_steps if n_steps else 0.0


def _ones_like(loss):
    return np.ones(np.shape(data_of(loss)))


def _loss_value(loss):
    loss = data_of(loss)
    return float(loss) if np.ndim(loss) == 0 else np.asarray(loss)


def whole_chain_grad(leaves, prelude, steps, finale):
    """Differentiate prelude -> steps -> finale on a single tape.

    Args:
        leaves: dict name -> numpy array/scalar, the differentiation targets.
        prelude: fn(env dict of Values) -> (shared tuple, initial state tuple).
        steps: sequence of pure fns (state, shared) -> state.
        finale: fn(state, shared) -> scalar, or a per-row loss vector whose
            entries are all seeded with 1 (each row's gradient is then the
            gradient of its own loss when rows do not interact).

    Returns:
        ChainGradResult with grads keyed like `leaves`.
    """
    tape = Tape()
    env = {k: tape.leaf(v) for k, v in leaves.items()}
    shared, state = prelude(env)
    for step in steps:
        state = step(state, shared)
    loss = finale(state, shared)
    names = list(leaves)
    grads = tape.backward([(loss, _ones_like(loss))], [env[k] for k in names])
    return ChainGradResult(_loss_value(loss), dict(zip(names, grads)),
                           retained_arrays=len(tape), n_steps=len(steps))


def checkpointed_chain_grad(leaves, prelude, steps, finale):
    """Like :func:`whole_chain_grad` but retaining only per-step states.

    The prelude runs once, taped; its Values mark which shared and initial
    state entries are differentiable, and their data feed the forward pass,
    which runs the segments untaped (the finale is the last) and caches
    each one's output.  The backward sweep replays the segments last to
    first, each on a fresh tape and checked bitwise against the forward
    (EngineError if it diverged), and accumulates adjoints for the shared
    prelude outputs; the prelude is backpropagated last.  Retained
    activations across step boundaries are exactly the cached step states,
    independent of chain length.
    """
    segments = list(steps) + [lambda state, shared: (finale(state, shared),)]
    tape_p = Tape()
    env_p = {k: tape_p.leaf(v) for k, v in leaves.items()}
    shared_p, state0_p = prelude(env_p)
    shared_raw = tuple(data_of(s) for s in shared_p)
    # cold forward
    states = [tuple(data_of(s) for s in state0_p)]
    for seg in segments:
        states.append(seg(states[-1], shared_raw))
    retained = sum(len(s) for s in states[1:-1])

    shared_acc = {j: np.zeros_like(np.asarray(shared_raw[j]))
                  for j, s in enumerate(shared_p) if isinstance(s, Value)}

    # segments, last to first; ones seed the loss
    adj_state = (_ones_like(states[-1][0]),)
    for i in range(len(segments) - 1, -1, -1):
        tape = Tape()
        st = tuple(tape.leaf(x) for x in states[i])
        sh = tuple(tape.leaf(x) if j in shared_acc else x
                   for j, x in enumerate(shared_raw))
        out = segments[i](st, sh)
        for o, ref in zip(out, states[i + 1]):
            # bytes, so a NaN the forward made must replay as the same NaN
            if np.asarray(data_of(o)).tobytes() != np.asarray(ref).tobytes():
                raise EngineError(f"segment {i} replay diverged from forward pass")
        seeds = [(o, a) for o, a in zip(out, adj_state) if isinstance(o, Value)]
        grads = tape.backward(seeds, list(st) + [sh[j] for j in shared_acc])
        adj_state = grads[:len(st)]
        for j, g in zip(shared_acc, grads[len(st):]):
            shared_acc[j] += g

    # prelude segment
    seeds = [(shared_p[j], g) for j, g in shared_acc.items()]
    seeds += [(s0, a) for s0, a in zip(state0_p, adj_state) if isinstance(s0, Value)]
    names = list(leaves)
    grads = tape_p.backward(seeds, [env_p[k] for k in names])
    return ChainGradResult(_loss_value(states[-1][0]), dict(zip(names, grads)),
                           retained_arrays=retained, n_steps=len(steps))
