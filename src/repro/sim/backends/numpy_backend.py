"""The default ``numpy`` step-kernel backend.

This module is the hybrid stepper that used to live inline in
:class:`~repro.sim.batched.BatchedSimulation` /
:class:`~repro.sim.batched.BatchedMultisetSimulation` (the adaptive
scalar-chunk / vectorized-window controller) and
:class:`~repro.sim.ensemble.EnsembleMultisetSimulation` (the lockstep
round), extracted verbatim behind the backend seam so alternative
kernels — JIT-compiled (:mod:`repro.sim.backends.numba_backend`) or
interpreted (the ``python`` backend) — can slot in behind the same
calls.  It is the default backend and the behavioral reference: every
other backend's batched kernels must reproduce these trajectories bit
for bit (the backend-parameterized fingerprint suite enforces it).

The functions take the engine instance and mutate its state exactly as
the original methods did; the engines own all bookkeeping that is not
per-interaction (streams, fault plans, monitors, dirty flags).
"""

from __future__ import annotations

import numpy as np

#: Interactions per scalar burst between controller decisions.
_SCALAR_CHUNK = 1024
#: Mean no-op gap above which vectorized windows beat scalar stepping.
_GAP_VECTOR_THRESHOLD = 24.0
#: Hard cap on one vectorized window (batched engines).
_WINDOW_MAX = 1 << 16
#: Gap estimates saturate here (treated as "effectively silent").
_GAP_CAP = 1e9


# -- Batched multiset kernels --------------------------------------------------


def multiset_scalar_chunk(sim, count: int) -> None:
    stream = sim._stream
    stream.ensure(count)
    i0 = stream.ptr
    p_vals = stream.pv[i0:i0 + count].tolist()
    q_vals = stream.qv[i0:i0 + count].tolist()
    stream.ptr = i0 + count
    counts = sim._counts
    order = sim._order
    pairs = sim._compiled.pair_table
    outchange = sim._outchange
    k = sim._compiled.size
    base = sim.interactions
    idx = 0
    reactive = 0
    struct = False
    for p_val, q_val in zip(p_vals, q_vals):
        idx += 1
        acc = 0
        for pid in order:
            acc += counts[pid]
            if p_val < acc:
                break
        if q_val >= acc - 1:  # exclude-shift (see BatchedMultisetSimulation)
            q_val += 1
        acc = 0
        for qid in order:
            acc += counts[qid]
            if q_val < acc:
                break
        flat = pid * k + qid
        result = pairs[flat]
        if result is None:
            continue
        reactive += 1
        p2, q2 = result
        c = counts[pid] - 1
        counts[pid] = c
        if not c:
            order.remove(pid)
            struct = True
        c = counts[qid] - 1
        counts[qid] = c
        if not c:
            order.remove(qid)
            struct = True
        if not counts[p2]:
            order.append(p2)
            struct = True
        counts[p2] += 1
        if not counts[q2]:
            order.append(q2)
            struct = True
        counts[q2] += 1
        sim.last_change = base + idx
        if outchange[flat]:
            sim.last_output_change = base + idx
    sim.interactions = base + idx
    if reactive:
        sim._dirty_counts = True
        if struct:
            sim._dirty_struct = True
        sim._gap = 0.6 * sim._gap + 0.4 * (idx / reactive)
    else:
        sim._gap = min(sim._gap * 2.0 + 1.0, _GAP_CAP)


def multiset_vector_round(sim, remaining: int) -> None:
    if sim._dirty_struct:
        sim._refresh_struct()
    if sim._dirty_counts:
        sim._refresh_cum()
    gap = sim._gap
    window = int(gap * 6.0) + 8
    if window > remaining:
        window = remaining
    if window > _WINDOW_MAX:
        window = _WINDOW_MAX
    stream = sim._stream
    stream.ensure(window)
    i0 = stream.ptr
    pv = stream.pv[i0:i0 + window]
    cum = sim._cum
    ppos = cum.searchsorted(pv, side="right")
    candidates = sim._row_any[ppos].nonzero()[0]
    if candidates.size == 0:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    # Responder draw over n - 1 with the initiator's state excluded:
    # shifting the draw past the excluded unit re-aligns it with the
    # unadjusted cumsum (the vectorized form of the reference scan).
    # Only candidate positions can be reactive, so only they need the
    # responder side resolved.
    qv = stream.qv[i0:i0 + window][candidates]
    ppos_c = ppos[candidates]
    shifted = qv + (qv >= sim._cum_m1[ppos_c])
    qpos_c = cum.searchsorted(shifted, side="right")
    hit = sim._react_live[ppos_c, qpos_c]
    m = int(hit.argmax())
    if not hit[m]:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    j0 = int(candidates[m])
    stream.ptr = i0 + j0 + 1
    sim.interactions += j0 + 1
    order = sim._order
    pid = order[int(ppos_c[m])]
    qid = order[int(qpos_c[m])]
    result = sim._compiled.pair_table[pid * sim._compiled.size + qid]
    sim._apply_transition(pid, qid, result)
    sim._gap = 0.75 * gap + 0.25 * (j0 + 1)


# -- Batched agent kernels -----------------------------------------------------


def agent_scalar_chunk(sim, count: int) -> None:
    stream = sim._stream
    stream.ensure(count)
    i0 = stream.ptr
    p_vals = stream.pv[i0:i0 + count].tolist()
    q_vals = stream.qv[i0:i0 + count].tolist()
    stream.ptr = i0 + count
    ids = sim._ids
    pairs = sim._pairs
    k = sim._k
    base = sim.interactions
    idx = 0
    reactive = 0
    for initiator, responder in zip(p_vals, q_vals):
        idx += 1
        if responder >= initiator:
            responder += 1
        result = pairs[ids[initiator] * k + ids[responder]]
        if result is None:
            continue
        reactive += 1
        sim.interactions = base + idx
        sim._apply_transition(initiator, responder, result)
    sim.interactions = base + idx
    if reactive:
        sim._gap = 0.6 * sim._gap + 0.4 * (idx / reactive)
    else:
        sim._gap = min(sim._gap * 2.0 + 1.0, _GAP_CAP)


def agent_vector_round(sim, remaining: int) -> None:
    gap = sim._gap
    window = int(gap * 6.0) + 8
    if window > remaining:
        window = remaining
    if window > _WINDOW_MAX:
        window = _WINDOW_MAX
    stream = sim._stream
    stream.ensure(window)
    i0 = stream.ptr
    pv = stream.pv[i0:i0 + window]
    sarr = sim._sarr
    sp = sarr[pv]
    # Initiator states with no reactive partner at all can never be
    # the reactive event; windows of only those skip the responder
    # side entirely.
    candidates = np.flatnonzero(sim._row_any[sp])
    if candidates.size == 0:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    pv_c = pv[candidates]
    qv_c = stream.qv[i0:i0 + window][candidates]
    resp_c = qv_c + (qv_c >= pv_c)
    sp_c = sp[candidates]
    sq_c = sarr[resp_c]
    hit = sim._react_flat[sp_c * sim._k + sq_c]
    m = int(hit.argmax())
    if not hit[m]:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    j0 = int(candidates[m])
    stream.ptr = i0 + j0 + 1
    sim.interactions += j0 + 1
    result = sim._pairs[int(sp_c[m]) * sim._k + int(sq_c[m])]
    sim._apply_transition(int(pv_c[m]), int(resp_c[m]), result)
    sim._gap = 0.75 * gap + 0.25 * (j0 + 1)


# -- Ensemble lockstep kernel --------------------------------------------------


def ensemble_lockstep_chunk(ens, idx: np.ndarray, rounds: int) -> None:
    """``rounds`` lockstep rounds: every trial in ``idx`` advances
    exactly one interaction per round, transitions applied at once.

    The reactive-dense fast path.  When the mean no-op gap is small,
    first-hit windows apply only ~one transition per numpy round
    anyway while paying the full (W, A, k) broadcast; here the engine
    pays a short fixed sequence of O(A*k) operations per interaction
    instead.  No-op pairs go through the same scatter arithmetic —
    their compiled transitions are identities, so the updates cancel
    exactly — which keeps the inner loop branch-free.
    """
    A = idx.size
    # Agent-index draws are count-independent: the whole chunk's
    # (initiator, responder) index pairs are drawn and shifted up
    # front, leaving only the bin search and the apply per round.
    ij = np.empty((rounds, 2, A), dtype=np.int64)
    u1 = ens.rng.integers(0, ens.n, size=(rounds, A))
    u2 = ens.rng.integers(0, ens.n - 1, size=(rounds, A))
    ij[:, 0] = u1
    ij[:, 1] = u2 + (u2 >= u1)
    c = np.ascontiguousarray(ens.counts[idx])
    cum = np.cumsum(c, axis=1)
    ar = np.arange(A)
    react2d = ens._react2d
    tinit2d = ens._tinit2d
    tresp2d = ens._tresp2d
    last_hit = np.zeros(A, dtype=np.int64)
    last_out_hit = np.zeros(A, dtype=np.int64)
    track = ens.output_hist is not None
    if track:
        hist = np.ascontiguousarray(ens.output_hist[idx])
        out = ens._out_ids
    hits = 0
    for r in range(rounds):
        b = (ij[r][:, :, None] >= cum[None]).sum(axis=2)
        p, q = b
        re = react2d[p, q]
        nre = int(re.sum())
        if nre == 0:
            # A fully no-op round leaves every row untouched.
            continue
        hits += nre
        p2 = tinit2d[p, q]
        q2 = tresp2d[p, q]
        # Unconditional apply: rows are distinct within each scatter
        # and no-op transitions are identities, so this is exact.
        c[ar, p] -= 1
        c[ar, q] -= 1
        c[ar, p2] += 1
        c[ar, q2] += 1
        np.cumsum(c, axis=1, out=cum)
        last_hit[re] = r + 1
        if track:
            op, oq = out[p], out[q]
            op2, oq2 = out[p2], out[q2]
            hist[ar, op] -= 1
            hist[ar, oq] -= 1
            hist[ar, op2] += 1
            hist[ar, oq2] += 1
            changed = ~(((op == op2) & (oq == oq2))
                        | ((op == oq2) & (oq == op2)))
            last_out_hit[changed] = r + 1
    base = ens.interactions[idx]
    ens.counts[idx] = c
    ens._cum[idx] = cum
    ens.interactions[idx] += rounds
    hit = last_hit > 0
    ens.last_change[idx[hit]] = base[hit] + last_hit[hit]
    if track:
        ens.output_hist[idx] = hist
        ohit = last_out_hit > 0
        ens.last_output_change[idx[ohit]] = (base[ohit]
                                             + last_out_hit[ohit])
    if hits:
        ens._gap = 0.7 * ens._gap + 0.3 * (rounds * A / hits)
    else:
        ens._gap = min(ens._gap * 2.0 + 1.0, _GAP_CAP)


# -- Kernel objects ------------------------------------------------------------


class NumpyMultisetKernels:
    """Hybrid scalar/vector stepper for the batched multiset engine."""

    name = "numpy"
    needs_typed_tables = False

    @staticmethod
    def chunk(sim, remaining: int) -> None:
        if sim._gap < _GAP_VECTOR_THRESHOLD:
            multiset_scalar_chunk(sim, remaining if remaining < _SCALAR_CHUNK
                                  else _SCALAR_CHUNK)
        else:
            multiset_vector_round(sim, remaining)


class NumpyAgentKernels:
    """Hybrid scalar/vector stepper for the batched agent engine."""

    name = "numpy"
    needs_typed_tables = False

    @staticmethod
    def chunk(sim, remaining: int) -> None:
        if sim._gap < _GAP_VECTOR_THRESHOLD:
            agent_scalar_chunk(sim, remaining if remaining < _SCALAR_CHUNK
                               else _SCALAR_CHUNK)
        else:
            agent_vector_round(sim, remaining)


class NumpyEnsembleKernels:
    """Lockstep round for the ensemble engine."""

    name = "numpy"
    needs_typed_tables = False

    lockstep_chunk = staticmethod(ensemble_lockstep_chunk)


_KERNELS = {
    "batched-multiset": NumpyMultisetKernels(),
    "batched-agent": NumpyAgentKernels(),
    "ensemble": NumpyEnsembleKernels(),
}


def make_kernels(family: str):
    """The numpy kernels for one engine family (stateless singletons)."""
    return _KERNELS[family]
