"""Parametric level-5 RAID dependability model (paper, Section 3).

Architecture: ``G`` parity groups of ``N`` disks; ``N`` controllers, each
controlling a *string* of ``G`` disks (one disk of every group), plus
``C_H`` hot-spare controllers and ``D_H`` hot-spare disks. The system is
operational iff every parity group has at least ``N−1`` available disks;
a failed controller makes its entire string unavailable.

The paper uses the *pessimistic approximated* model of [13] (+ hot spare
controllers): instead of tracking per-group/per-string detail, the state
is the aggregate tuple

    (NFD, NDR, NWD, NSD, AL, NFC, NSC)           + one FAILED state

— failed disks, disks under reconstruction, disks waiting for
reconstruction, spare disks, alignment flag ("all unavailable disks lie
on one string"), failed controllers, spare controllers. The approximation
of the paper: when an unavailable disk of an *unaligned* set becomes
available, the remaining set is still considered unaligned whenever it
has ``>= 2`` members.

Exact dynamics used here (the paper gives prose only; each rule below is
the direct aggregate translation; ``tests/models/test_raid5.py`` checks
them against the paper's state/transition-count remarks and its Table 2
step counts):

Invariants of operational states
  * ``NFC ∈ {0,1}`` (two failed controllers ⇒ two unavailable disks in
    every group ⇒ system failure);
  * ``NFC = 0 ⇒ NWD = 0`` (a waiting disk exists only while its string's
    controller is down) and ``NFC = 1 ⇒ NDR = 0`` (no group is fully
    available while a string is down);
  * ``U = NFD + NDR + NWD <= G`` (unavailable disks occupy distinct
    groups in any operational state);
  * ``AL = True`` whenever ``U <= 1`` or ``NFC = 1``.

Events (rates; ``→ FAILED`` marks system failure)
  * disk failure in a *fresh* group (``G − U`` of them):
    - ``NFC=0``: rate ``(G−U)·N·λ_D``; lands on the aligned string with
      probability ``1/N`` (keeps ``AL``), else unaligns;
    - ``NFC=1``: the string-c disk (1 per fresh group) fails at ``λ_D``
      keeping the system up (still aligned); the other ``N−1`` disks
      → FAILED.
  * disk failure in an occupied group: the ``N−1`` available disks of a
    group holding a failed/waiting disk fail at ``λ_D`` → FAILED; in a
    reconstructing group the ``N−1`` (overloaded) source disks fail at
    ``λ_S`` → FAILED, the target disk fails at ``λ_S`` → back to a failed
    disk (``NDR−1, NFD+1``);
  * waiting disks (``NFC=1``) fail at ``λ_D`` → ``NWD−1, NFD+1``;
  * controller failure: with ``U = 0`` → ``NFC=1`` (rate ``N·λ_C``);
    with ``U >= 1`` and ``AL``: rate ``λ_C`` hits the aligned string
    (reconstructions stall: ``NWD += NDR``), rate ``(N−1)·λ_C`` → FAILED;
    with ``¬AL`` → FAILED (rate ``N·λ_C``); with ``NFC=1`` the remaining
    ``N−1`` controllers → FAILED;
  * reconstruction completion: per group ``μ_DRC``; success (``P_R``)
    frees the disk (un-aligns per the paper's pessimistic rule:
    ``AL`` stays ``False`` while ``U >= 2``), failure (``1−P_R``)
    → FAILED;
  * repairman (single, controllers first): controller swap ``μ_CRP``
    (needs ``NSC>=1``; on completion all waiting disks start
    reconstruction: ``NDR = NWD, NWD = 0``); disk swap ``μ_DRP`` (needs
    ``NFD>=1, NSD>=1`` and no controller swap in progress; the replaced
    disk starts reconstruction when ``NFC=0``, else waits);
  * out-of-spare (field) replacement, unlimited repairmen, ``μ_SR`` each:
    failed disks when ``NSD=0``, the failed controller when ``NSC=0``;
  * spare replenishment, ``μ_SR`` per missing spare:
    ``(D_H−NSD)·μ_SR`` and ``(C_H−NSC)·μ_SR``;
  * FAILED: global repair ``μ_G`` back to the initial state
    (availability variant) or absorbing (reliability variant — the
    paper's "one transition less").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import RewardStructure
from repro.models.builder import ExploredModel, StateSpaceBuilder

__all__ = [
    "Raid5Params",
    "Raid5State",
    "FAILED",
    "build_raid5_availability",
    "build_raid5_reliability",
    "raid5_performability_rewards",
]

#: The single aggregated system-failure state.
FAILED = "FAILED"

#: Operational states are tuples ``(NFD, NDR, NWD, NSD, AL, NFC, NSC)``.
Raid5State = tuple[int, int, int, int, bool, int, int]


@dataclass(frozen=True)
class Raid5Params:
    """Parameters of the RAID-5 model; defaults are the paper's Section 3
    values (all rates in h⁻¹)."""

    groups: int = 20
    """``G`` — number of parity groups (each controller string has ``G``
    disks). The paper evaluates ``G = 20`` and ``G = 40``."""

    disks_per_group: int = 5
    """``N`` — disks per parity group = number of controllers."""

    spare_disks: int = 3
    """``D_H`` — hot-spare disks."""

    spare_controllers: int = 1
    """``C_H`` — hot-spare controllers."""

    disk_fail: float = 1e-5
    """``λ_D`` — failure rate of a non-overloaded disk."""

    disk_fail_overloaded: float = 2e-5
    """``λ_S`` — failure rate of an overloaded disk (in a reconstructing
    parity group)."""

    controller_fail: float = 5e-5
    """``λ_C`` — controller failure rate."""

    reconstruction: float = 1.0
    """``μ_DRC`` — data-reconstruction rate per group."""

    disk_repair: float = 4.0
    """``μ_DRP`` — repairman disk-swap rate (uses a hot spare)."""

    controller_repair: float = 4.0
    """``μ_CRP`` — repairman controller-swap rate (uses a hot spare)."""

    spare_repair: float = 0.25
    """``μ_SR`` — out-of-spare field-replacement / spare-replenishment
    rate (unlimited repairmen)."""

    global_repair: float = 0.25
    """``μ_G`` — global repair rate returning FAILED to the initial
    state (availability variant only)."""

    reconstruction_success: float = 0.99337
    """``P_R`` — probability a reconstruction succeeds. The paper
    introduces the parameter but never states the value used in its
    experiments. The default here was calibrated so that ``UR(10^5 h)``
    for ``G = 20`` matches the paper's reported 0.50480; the *same* value
    then predicts 0.7545 for ``G = 40`` against the paper's 0.74750
    (within 1%), which cross-validates the calibration
    (``tests/models/test_raid5.py`` pins the G = 20 value). The magnitude
    is consistent with an unrecoverable-read-error computation over the
    ``(N−1)`` source disks of a reconstruction (e.g. ~6.4·10¹⁰ bits at a
    10⁻¹³ bit-error rate)."""

    def __post_init__(self) -> None:
        if self.groups < 1 or self.disks_per_group < 2:
            raise ModelError("need G >= 1 and N >= 2")
        if not (0.0 <= self.reconstruction_success <= 1.0):
            raise ModelError("P_R must be a probability")
        if self.spare_disks < 0 or self.spare_controllers < 0:
            raise ModelError("spare counts must be non-negative")
        for name in ("disk_fail", "disk_fail_overloaded", "controller_fail",
                     "reconstruction", "disk_repair", "controller_repair",
                     "spare_repair", "global_repair"):
            if getattr(self, name) < 0.0:
                raise ModelError(f"{name} must be non-negative")

    @property
    def initial_state(self) -> Raid5State:
        """All components up, all spares available."""
        return (0, 0, 0, self.spare_disks, True, 0, self.spare_controllers)


def _transitions(p: Raid5Params, state, *, absorbing: bool):
    """Outgoing ``(state, rate)`` arcs of one state (see module docstring)."""
    if state == FAILED:
        if not absorbing and p.global_repair > 0.0:
            yield p.initial_state, p.global_repair
        return

    nfd, ndr, nwd, nsd, al, nfc, nsc = state
    g, n = p.groups, p.disks_per_group
    u = nfd + ndr + nwd
    fresh = g - u

    # --- disk failures -----------------------------------------------------
    if nfc == 0:
        if fresh > 0 and p.disk_fail > 0.0:
            if u == 0:
                yield (nfd + 1, ndr, nwd, nsd, True, 0, nsc), \
                    fresh * n * p.disk_fail
            elif al:
                # 1 of the N disks of each fresh group lies on the aligned
                # string; hitting it keeps the set aligned.
                yield (nfd + 1, ndr, nwd, nsd, True, 0, nsc), \
                    fresh * p.disk_fail
                yield (nfd + 1, ndr, nwd, nsd, False, 0, nsc), \
                    fresh * (n - 1) * p.disk_fail
            else:
                yield (nfd + 1, ndr, nwd, nsd, False, 0, nsc), \
                    fresh * n * p.disk_fail
        # Available disks of groups holding a failed disk.
        if nfd > 0 and p.disk_fail > 0.0:
            yield FAILED, nfd * (n - 1) * p.disk_fail
        # Reconstructing groups: overloaded sources and target.
        if ndr > 0 and p.disk_fail_overloaded > 0.0:
            yield FAILED, ndr * (n - 1) * p.disk_fail_overloaded
            yield (nfd + 1, ndr - 1, nwd, nsd, al, 0, nsc), \
                ndr * p.disk_fail_overloaded
    else:  # nfc == 1 — every group already misses its string-c disk
        if fresh > 0 and p.disk_fail > 0.0:
            # The fresh groups' string-c disks keep the system up (still
            # aligned); their other N-1 disks collide with the string.
            yield (nfd + 1, 0, nwd, nsd, True, 1, nsc), fresh * p.disk_fail
            yield FAILED, fresh * (n - 1) * p.disk_fail
        if (nfd + nwd) > 0 and p.disk_fail > 0.0:
            yield FAILED, (nfd + nwd) * (n - 1) * p.disk_fail
        if nwd > 0 and p.disk_fail > 0.0:
            yield (nfd + 1, 0, nwd - 1, nsd, True, 1, nsc), nwd * p.disk_fail

    # --- controller failures ------------------------------------------------
    if p.controller_fail > 0.0:
        if nfc == 0:
            if u == 0:
                yield (0, 0, 0, nsd, True, 1, nsc), n * p.controller_fail
            elif al:
                # Hitting the aligned string stalls reconstructions.
                yield (nfd, 0, nwd + ndr, nsd, True, 1, nsc), p.controller_fail
                yield FAILED, (n - 1) * p.controller_fail
            else:
                yield FAILED, n * p.controller_fail
        else:
            yield FAILED, (n - 1) * p.controller_fail

    # --- reconstruction completions ------------------------------------------
    if ndr > 0 and p.reconstruction > 0.0:
        pr = p.reconstruction_success
        if pr > 0.0:
            # Paper's pessimistic rule: an unaligned set stays unaligned
            # while >= 2 disks remain unavailable.
            new_u = u - 1
            new_al = True if new_u <= 1 else al
            yield (nfd, ndr - 1, nwd, nsd, new_al, 0, nsc), \
                ndr * p.reconstruction * pr
        if pr < 1.0:
            yield FAILED, ndr * p.reconstruction * (1.0 - pr)

    # --- repairman (controllers first) ---------------------------------------
    controller_swap = nfc == 1 and nsc >= 1
    if controller_swap and p.controller_repair > 0.0:
        yield (nfd, nwd, 0, nsd, True, 0, nsc - 1), p.controller_repair
    if (not controller_swap and nfd >= 1 and nsd >= 1
            and p.disk_repair > 0.0):
        if nfc == 0:
            yield (nfd - 1, ndr + 1, 0, nsd - 1, al, 0, nsc), p.disk_repair
        else:
            yield (nfd - 1, 0, nwd + 1, nsd - 1, True, 1, nsc), p.disk_repair

    # --- out-of-spare field replacements (unlimited repairmen) ---------------
    if p.spare_repair > 0.0:
        if nfd >= 1 and nsd == 0:
            if nfc == 0:
                yield (nfd - 1, ndr + 1, 0, nsd, al, 0, nsc), \
                    nfd * p.spare_repair
            else:
                yield (nfd - 1, 0, nwd + 1, nsd, True, 1, nsc), \
                    nfd * p.spare_repair
        if nfc == 1 and nsc == 0:
            yield (nfd, nwd, 0, nsd, True, 0, nsc), p.spare_repair

        # --- spare replenishment ---------------------------------------------
        if nsd < p.spare_disks:
            yield (nfd, ndr, nwd, nsd + 1, al, nfc, nsc), \
                (p.spare_disks - nsd) * p.spare_repair
        if nsc < p.spare_controllers:
            yield (nfd, ndr, nwd, nsd, al, nfc, nsc + 1), \
                (p.spare_controllers - nsc) * p.spare_repair


def _build(p: Raid5Params, absorbing: bool) -> ExploredModel:
    builder = StateSpaceBuilder(
        lambda s: _transitions(p, s, absorbing=absorbing))
    return builder.explore(p.initial_state)


def build_raid5_availability(params: Raid5Params | None = None
                             ) -> tuple[CTMC, RewardStructure, ExploredModel]:
    """Irreducible variant for the point unavailability ``UA(t)``.

    Returns ``(model, rewards, explored)`` where ``rewards`` puts rate 1
    on the FAILED state and 0 elsewhere (``UA(t) = TRR(t)``) and
    ``explored.index`` maps symbolic states to indices.
    """
    p = params or Raid5Params()
    if p.global_repair <= 0.0:
        raise ModelError("availability variant needs global_repair > 0")
    explored = _build(p, absorbing=False)
    failed_idx = explored.index[FAILED]
    rewards = RewardStructure.indicator(explored.model.n_states, [failed_idx])
    return explored.model, rewards, explored


def build_raid5_reliability(params: Raid5Params | None = None
                            ) -> tuple[CTMC, RewardStructure, ExploredModel]:
    """Absorbing variant for the unreliability ``UR(t)``.

    The FAILED state is absorbing (A = 1); the reward structure puts rate
    1 on it, so ``UR(t) = TRR(t) = P[system failed by t]``.
    """
    p = params or Raid5Params()
    explored = _build(p, absorbing=True)
    failed_idx = explored.index[FAILED]
    rewards = RewardStructure.indicator(explored.model.n_states, [failed_idx])
    return explored.model, rewards, explored


def raid5_performability_rewards(explored: ExploredModel,
                                 params: Raid5Params | None = None,
                                 *, throughput_per_group: float = 1.0,
                                 degraded_factor: float = 0.5,
                                 reconstructing_factor: float = 0.7
                                 ) -> RewardStructure:
    """Throughput-style performability reward structure.

    Every fully-available parity group earns ``throughput_per_group``;
    groups holding a failed/waiting disk run degraded
    (``degraded_factor``); reconstructing groups run at
    ``reconstructing_factor`` (rebuild traffic); when a controller is
    down every group is degraded; the FAILED state earns 0. Used by the
    performability example and the RRL-vs-SR integration test.
    """
    p = params or Raid5Params()
    g = p.groups
    n_states = explored.model.n_states
    r = np.zeros(n_states)
    for state, idx in explored.index.items():
        if state == FAILED:
            continue
        nfd, ndr, nwd, _nsd, _al, nfc, _nsc = state
        if nfc == 1:
            r[idx] = throughput_per_group * degraded_factor * g
            continue
        fresh = g - (nfd + ndr + nwd)
        r[idx] = throughput_per_group * (
            fresh
            + degraded_factor * (nfd + nwd)
            + reconstructing_factor * ndr)
    return RewardStructure(r)
