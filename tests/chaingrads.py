"""Test oracle for chain gradients: the step-checkpointed replay that
`steplab.engine.adjoint_chain_grad` must equal bit for bit.

It stores the per-step states of an untaped forward pass and replays each
segment (the finale last) on a throwaway tape during the backward sweep,
checking every replay bitwise against the forward pass.
"""

import numpy as np

from steplab.engine import (ChainGradResult, EngineError, Tape, Value,
                            _loss_value, _ones_like, data_of)


def checkpointed_chain_grad(leaves, prelude, steps, finale):
    """Like `whole_chain_grad` but retaining only per-step states.

    The prelude runs once, taped; its Values mark which shared and initial
    state entries are differentiable, and their data feed the forward pass,
    which runs the segments the builder steps makes of them untaped (the
    finale is the last) and caches each one's output.  The backward sweep
    replays the segments last to first, each built from that replay's own
    taped shared on a fresh tape and checked bitwise against the forward
    (EngineError if it diverged), and accumulates adjoints for the shared
    prelude outputs; the prelude is backpropagated last.  Retained
    activations across step boundaries are exactly the cached step states,
    independent of chain length.
    """
    def segments(shared):
        return list(steps(shared)) + [lambda state: (finale(state),)]

    tape_p = Tape()
    env_p = {k: tape_p.leaf(v) for k, v in leaves.items()}
    shared_p, state0_p = prelude(env_p)
    shared_raw = tuple(data_of(s) for s in shared_p)
    # cold forward
    states = [tuple(data_of(s) for s in state0_p)]
    for seg in segments(shared_raw):
        states.append(seg(states[-1]))
    retained = sum(len(s) for s in states[1:-1])

    shared_acc = {j: np.zeros_like(np.asarray(shared_raw[j]))
                  for j, s in enumerate(shared_p) if isinstance(s, Value)}

    # segments, last to first; ones seed the loss
    adj_state = (_ones_like(states[-1][0]),)
    for i in range(len(states) - 2, -1, -1):
        tape = Tape()
        st = tuple(tape.leaf(x) for x in states[i])
        sh = tuple(tape.leaf(x) if j in shared_acc else x
                   for j, x in enumerate(shared_raw))
        out = segments(sh)[i](st)
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
                           retained_arrays=retained, n_steps=len(states) - 2)
