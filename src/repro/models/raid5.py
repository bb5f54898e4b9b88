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

Events (rates; ``→ FAILED`` marks system failure; the tags E1–E9 name
the rows of the rule table ``_rules``)
  * E1, disk failure in a *fresh* group (``G − U`` of them):
    - ``NFC=0``: rate ``(G−U)·N·λ_D``; lands on the aligned string with
      probability ``1/N`` (keeps ``AL``), else unaligns;
    - ``NFC=1``: the string-c disk (1 per fresh group) fails at ``λ_D``
      keeping the system up (still aligned); the other ``N−1`` disks
      → FAILED.
  * E2, disk failure in an occupied group: the ``N−1`` available disks of a
    group holding a failed/waiting disk fail at ``λ_D`` → FAILED; in a
    reconstructing group the ``N−1`` (overloaded) source disks fail at
    ``λ_S`` → FAILED, the target disk fails at ``λ_S`` → back to a failed
    disk (``NDR−1, NFD+1``);
  * E3, waiting disks (``NFC=1``) fail at ``λ_D`` → ``NWD−1, NFD+1``;
  * E4, controller failure: with ``U = 0`` → ``NFC=1`` (rate ``N·λ_C``);
    with ``U >= 1`` and ``AL``: rate ``λ_C`` hits the aligned string
    (reconstructions stall: ``NWD += NDR``), rate ``(N−1)·λ_C`` → FAILED;
    with ``¬AL`` → FAILED (rate ``N·λ_C``); with ``NFC=1`` the remaining
    ``N−1`` controllers → FAILED;
  * E5, reconstruction completion: per group ``μ_DRC``; success (``P_R``)
    frees the disk (un-aligns per the paper's pessimistic rule:
    ``AL`` stays ``False`` while ``U >= 2``), failure (``1−P_R``)
    → FAILED;
  * E6, repairman (single, controllers first): controller swap ``μ_CRP``
    (needs ``NSC>=1``; on completion all waiting disks start
    reconstruction: ``NDR = NWD, NWD = 0``); disk swap ``μ_DRP`` (needs
    ``NFD>=1, NSD>=1`` and no controller swap in progress; the replaced
    disk starts reconstruction when ``NFC=0``, else waits);
  * E7, out-of-spare (field) replacement, unlimited repairmen, ``μ_SR`` each:
    failed disks when ``NSD=0``, the failed controller when ``NSC=0``;
  * E8, spare replenishment, ``μ_SR`` per missing spare:
    ``(D_H−NSD)·μ_SR`` and ``(C_H−NSC)·μ_SR``;
  * E9, FAILED: global repair ``μ_G`` back to the initial state
    (availability variant) or absorbing (reliability variant — the
    paper's "one transition less").

Construction
  The chain is built from arrays, not state by state. The candidates
  are every tuple the invariants allow, each with an integer code. Each
  row of the rule table is evaluated once over all candidates: a
  condition selects the sources, the changes of their components give
  the targets, and the rates follow with the per-state generator's
  float operations in its order. A target whose code is no candidate's
  raises :class:`~repro.exceptions.ModelError`. A level-synchronous BFS
  from the initial state numbers the reachable states in order of
  first occurrence over the arcs in (source, rule) order, and the arcs
  go to the CTMC in that order. That is the order in which
  :class:`~repro.models.builder.StateSpaceBuilder` discovers states and
  sums duplicate FAILED arcs, so the chain is bit-identical to exploring
  the per-state generator, which ``tests/models/raid5_oracle.py`` keeps
  as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import RewardStructure
from repro.models.builder import ExploredModel

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


class _Columns(NamedTuple):
    """Components of a set of candidate states: the rows of one
    ``(10, states)`` integer array.

    The first seven fields are the state tuple (``AL`` as 0/1); ``u``
    and ``fresh`` are the derived ``U = NFD + NDR + NWD`` and ``G − U``,
    and ``code`` is the state's code (:func:`_place_values`).
    """

    nfd: np.ndarray
    ndr: np.ndarray
    nwd: np.ndarray
    nsd: np.ndarray
    al: np.ndarray
    nfc: np.ndarray
    nsc: np.ndarray
    u: np.ndarray
    fresh: np.ndarray
    code: np.ndarray


def _place_values(p: Raid5Params) -> tuple[dict[str, int], int]:
    """Place values of a state's code, by component in state-tuple order,
    and the first code past every state's.

    The digits run NFD, NFC, NDR, NWD, NSD, AL, NSC from the top. Each
    has room for one value below and one above its range, so a rule that
    steps a component out of range (a missing guard) lands on a code
    that no candidate has.
    """
    g = p.groups + 1
    sizes = {"nfd": g, "nfc": 2, "ndr": g, "nwd": g,
             "nsd": p.spare_disks + 1, "al": 2,
             "nsc": p.spare_controllers + 1}
    place, total = {}, 1
    for name in reversed(sizes):
        place[name] = total
        total *= sizes[name] + 2
    return {name: place[name] for name in _Columns._fields[:7]}, total


def _encode(state, place: dict[str, int]):
    """Codes of states given as their seven components: scalars, or the
    rows of a table. Every digit is stored one up."""
    return np.dot(tuple(place.values()), state) + sum(place.values())


def _candidates(p: Raid5Params) -> tuple[np.ndarray, np.ndarray]:
    """Every tuple the module invariants allow: ``NFC ∈ {0,1}``;
    ``NFC = 0 ⇒ NWD = 0``; ``NFC = 1 ⇒ NDR = 0``; ``U <= G``; ``AL``
    whenever ``U <= 1`` or ``NFC = 1``.

    Returns the ``(10, candidates)`` table of :class:`_Columns` and the
    codes, ascending, followed by two codes past every tuple's: those of
    FAILED and of "no arc", whose ids are the candidate count and one
    more.
    """
    g = p.groups
    # NDR or NWD, whichever NFC allows, is one digit X; enumerating in
    # digit order yields ascending codes.
    nfd, nfc, x, nsd, al, nsc = np.indices(
        (g + 1, 2, g + 1, p.spare_disks + 1, 2, p.spare_controllers + 1),
        dtype=np.int32).reshape(6, -1)
    u = nfd + x
    keep = (u <= g) & ((al == 1) | ((nfc == 0) & (u >= 2)))
    nfd, nfc, x, nsd, al, nsc, u = (col[keep] for col in
                                    (nfd, nfc, x, nsd, al, nsc, u))
    table = np.empty((10, u.size), dtype=np.int64)
    table[:9] = (nfd, x * (1 - nfc), x * nfc, nsd, al, nfc, nsc, u, g - u)
    place, past = _place_values(p)
    table[9] = _encode(table[:7], place)
    return table, np.append(table[9], (past, past + 1))


def _rules(p: Raid5Params):
    """The event table of the module docstring as array rules.

    One row ``(guard, condition, target, rate)`` per arc of the per-state
    generator (``tests/models/raid5_oracle.py``), in its yield order:
    ``guard`` is the parameter test and ``condition`` selects the source
    states. ``target`` is ``None`` for FAILED, else the changes that
    lead to the successor, by component: an int, or a function of the
    sources. A component not named keeps its value, as it does in the
    generator's successor given the condition and the invariants (so
    ``AL`` stays 1 where the generator sets it while ``NFC = 1``).
    ``rate`` gives the arc rates with the generator's float operations
    in its order (e.g. ``(fresh·N)·λ_D``). Rows whose conditions exclude
    each other may sit in any order; the others keep the generator's,
    because duplicate FAILED arcs out of one state are summed in that
    order. Adjacent rows that share a condition share its function,
    which is evaluated once for both.
    """
    n = p.disks_per_group
    lam_d, lam_s, lam_c = (p.disk_fail, p.disk_fail_overloaded,
                           p.controller_fail)
    mu, pr, mu_sr = (p.reconstruction, p.reconstruction_success,
                     p.spare_repair)
    d_h, c_h = p.spare_disks, p.spare_controllers

    def aligned_hit(c):  # NFC = 0, U >= 1 and AL, a fresh group left
        return (c.nfc == 0) & (c.fresh > 0) & (c.u > 0) & (c.al == 1)

    def reconstructing(c):  # NDR > 0 implies NFC = 0
        return c.ndr > 0

    def string_down(c):  # NFC = 1, a fresh group left
        return (c.nfc == 1) & (c.fresh > 0)

    def aligned(c):  # NFC = 0, U >= 1 and AL
        return (c.nfc == 0) & (c.u > 0) & (c.al == 1)

    return (
        # E1, NFC = 0, U = 0 or ¬AL: any fresh disk (AL stays).
        (lam_d > 0.0,
         lambda c: (c.nfc == 0) & (c.fresh > 0) & ((c.u == 0) | (c.al == 0)),
         dict(nfd=1),
         lambda c: c.fresh * n * lam_d),
        # E1, NFC = 0, U >= 1 and AL: the aligned string's disk keeps AL;
        (lam_d > 0.0, aligned_hit,
         dict(nfd=1),
         lambda c: c.fresh * lam_d),
        # E1, NFC = 0, U >= 1 and AL: a disk of the other N−1 strings
        # unaligns.
        (lam_d > 0.0, aligned_hit,
         dict(nfd=1, al=-1),
         lambda c: c.fresh * (n - 1) * lam_d),
        # E2: the available disks of a failed disk's group.
        (lam_d > 0.0,
         lambda c: (c.nfc == 0) & (c.nfd > 0),
         None,
         lambda c: c.nfd * (n - 1) * lam_d),
        # E2: the overloaded sources of a reconstructing group;
        (lam_s > 0.0, reconstructing,
         None,
         lambda c: c.ndr * (n - 1) * lam_s),
        # E2: the target disk of a reconstructing group.
        (lam_s > 0.0, reconstructing,
         dict(nfd=1, ndr=-1),
         lambda c: c.ndr * lam_s),
        # E1, NFC = 1: a fresh group's string-c disk;
        (lam_d > 0.0, string_down,
         dict(nfd=1),
         lambda c: c.fresh * lam_d),
        # E1, NFC = 1: one of a fresh group's other N−1 disks.
        (lam_d > 0.0, string_down,
         None,
         lambda c: c.fresh * (n - 1) * lam_d),
        # E2, NFC = 1: groups holding a failed or waiting disk.
        (lam_d > 0.0,
         lambda c: (c.nfc == 1) & (c.nfd + c.nwd > 0),
         None,
         lambda c: (c.nfd + c.nwd) * (n - 1) * lam_d),
        # E3: a waiting disk fails (NWD > 0 implies NFC = 1).
        (lam_d > 0.0,
         lambda c: c.nwd > 0,
         dict(nfd=1, nwd=-1),
         lambda c: c.nwd * lam_d),
        # E4, NFC = 0, U = 0: any controller.
        (lam_c > 0.0,
         lambda c: (c.nfc == 0) & (c.u == 0),
         dict(nfc=1),
         lambda c: n * lam_c),
        # E4, NFC = 0, U >= 1 and AL: the aligned string's controller,
        # whose reconstructions stall (NWD += NDR, NDR = 0);
        (lam_c > 0.0, aligned,
         dict(nfc=1, ndr=lambda c: -c.ndr, nwd=lambda c: c.ndr),
         lambda c: lam_c),
        # E4, NFC = 0, U >= 1 and AL: one of the other N−1.
        (lam_c > 0.0, aligned,
         None,
         lambda c: (n - 1) * lam_c),
        # E4, NFC = 0, ¬AL: any controller.
        (lam_c > 0.0,
         lambda c: (c.nfc == 0) & (c.u > 0) & (c.al == 0),
         None,
         lambda c: n * lam_c),
        # E4, NFC = 1: one of the remaining N−1 controllers.
        (lam_c > 0.0,
         lambda c: c.nfc == 1,
         None,
         lambda c: (n - 1) * lam_c),
        # E5: a successful reconstruction (AL again once U − 1 <= 1);
        (mu > 0.0 and pr > 0.0, reconstructing,
         dict(ndr=-1, al=lambda c: (c.u <= 2) & (c.al == 0)),
         lambda c: c.ndr * mu * pr),
        # E5: a failed reconstruction.
        (mu > 0.0 and pr < 1.0, reconstructing,
         None,
         lambda c: c.ndr * mu * (1.0 - pr)),
        # E6: the repairman's controller swap (NDR = NWD, NWD = 0);
        (p.controller_repair > 0.0,
         lambda c: (c.nfc == 1) & (c.nsc >= 1),
         dict(nfc=-1, nsc=-1, ndr=lambda c: c.nwd, nwd=lambda c: -c.nwd),
         lambda c: p.controller_repair),
        # E6: else the disk swap, the disk reconstructing (NFC = 0)
        (p.disk_repair > 0.0,
         lambda c: (c.nfc == 0) & (c.nfd >= 1) & (c.nsd >= 1),
         dict(nfd=-1, ndr=1, nsd=-1),
         lambda c: p.disk_repair),
        # E6: or waiting (NFC = 1 and no spare controller to swap in).
        (p.disk_repair > 0.0,
         lambda c: (c.nfc == 1) & (c.nsc == 0) & (c.nfd >= 1) & (c.nsd >= 1),
         dict(nfd=-1, nwd=1, nsd=-1),
         lambda c: p.disk_repair),
        # E7: field replacement of a failed disk (NSD = 0), which then
        # reconstructs (NFC = 0) or waits (NFC = 1);
        (mu_sr > 0.0,
         lambda c: (c.nfc == 0) & (c.nfd >= 1) & (c.nsd == 0),
         dict(nfd=-1, ndr=1),
         lambda c: c.nfd * mu_sr),
        (mu_sr > 0.0,
         lambda c: (c.nfc == 1) & (c.nfd >= 1) & (c.nsd == 0),
         dict(nfd=-1, nwd=1),
         lambda c: c.nfd * mu_sr),
        # E7: field replacement of the failed controller (NSC = 0).
        (mu_sr > 0.0,
         lambda c: (c.nfc == 1) & (c.nsc == 0),
         dict(nfc=-1, ndr=lambda c: c.nwd, nwd=lambda c: -c.nwd),
         lambda c: mu_sr),
        # E8: spare disk replenishment;
        (mu_sr > 0.0,
         lambda c: c.nsd < d_h,
         dict(nsd=1),
         lambda c: (d_h - c.nsd) * mu_sr),
        # E8: spare controller replenishment.
        (mu_sr > 0.0,
         lambda c: c.nsc < c_h,
         dict(nsc=1),
         lambda c: (c_h - c.nsc) * mu_sr),
    )


def _successors(c: _Columns, changes: dict, place: dict[str, int]):
    """Codes of the states the sources ``c`` reach by ``changes``."""
    step = 0
    for name, change in changes.items():
        if callable(change):
            change = change(c)
        step = step + place[name] * change
    return c.code + step


def _explore(p: Raid5Params, absorbing: bool):
    """Reachable states and arcs of the RAID-5 chain.

    Returns ``(cols, order, failed, rows, targets, rates)``: the
    candidate columns, the reachable candidate ids in state-index order
    (FAILED is id ``failed``) and the COO arcs in (source, rule) order,
    the order :class:`~repro.models.builder.StateSpaceBuilder` emits.
    """
    table, codes = _candidates(p)
    cols = _Columns(*table)
    place, _ = _place_values(p)
    failed = cols.nfd.size
    pad = failed + 1  # the id of "no arc"
    initial = codes.searchsorted(_encode(p.initial_state, place))

    # Every arc, rule by rule: its target and rate, and its number in
    # `arc_tab`, one row per rule and one column per candidate (FAILED
    # last). Arc 0 leads to "no arc"; candidates a rule skips hold it.
    # The candidates are closed under the rules, and every rule changes
    # a component, so no arc is a self-loop. Every array here stays
    # within about 2 MB at G = 40, like the chain's own arrays: releasing
    # one of several MB makes glibc's malloc keep a larger heap, and a
    # higher peak RSS, for the rest of the process.
    rules = [rule[1:] for rule in _rules(p) if rule[0]]
    arc_tab = np.zeros((max(len(rules), 1), failed + 1), dtype=np.int32)
    target_codes, rates = [codes[pad:]], [[0.0]]
    n_arcs = 1
    last = None
    for arcs, (condition, target, rate) in zip(arc_tab, rules):
        if condition is not last:
            last = condition
            src = condition(cols).nonzero()[0]
            sub = _Columns(*table[:, src])
        arcs[src] = np.arange(n_arcs, n_arcs + src.size)
        n_arcs += src.size
        target_codes.append(np.full(src.size, codes[failed])
                            if target is None
                            else _successors(sub, target, place))
        val = rate(sub)
        rates.append(val if np.ndim(val) else np.full(src.size, val))
    if not absorbing and p.global_repair > 0.0:  # E9, FAILED's one arc
        arc_tab[0, failed] = n_arcs
        target_codes.append(codes[initial:initial + 1])
        rates.append([p.global_repair])
    target_codes = np.concatenate(target_codes)
    targets = codes.searchsorted(target_codes).astype(np.int32)
    if (codes[targets] != target_codes).any():
        raise ModelError("a RAID-5 rule leads outside the states the "
                         "model invariants allow")
    rates = np.concatenate(rates)
    targets[rates == 0.0] = pad  # StateSpaceBuilder drops these

    # Level-synchronous BFS: a level's new states, in order of first
    # occurrence over its arcs in (source, rule) order, get the next
    # indices, exactly as StateSpaceBuilder interns them. An unreached
    # state's entry sits above every index; a level lowers it to the
    # stamp of the first arc that reaches it.
    unreached = np.iinfo(np.int64).max
    index_of = np.full(pad + 1, unreached)
    index_of[pad] = -1
    frontier = np.array([initial])
    index_of[frontier] = 0
    levels = [frontier]
    n = 1
    while frontier.size:
        seen = targets[arc_tab.T[frontier].ravel()]
        stamp = np.arange(unreached - seen.size, unreached)
        np.minimum.at(index_of, seen, stamp)
        frontier = seen[index_of[seen] == stamp]
        index_of[frontier] = np.arange(n, n + frontier.size)
        n += frontier.size
        levels.append(frontier)
    order = np.concatenate(levels)

    arcs = arc_tab.T[order].ravel()
    reached = targets[arcs]
    live = reached != pad
    rows = np.repeat(np.arange(n, dtype=np.int32),
                     live.reshape(n, -1).sum(axis=1))
    return cols, order, failed, rows, index_of[reached[live]], \
        rates[arcs[live]]


def _build(p: Raid5Params, absorbing: bool) -> ExploredModel:
    cols, order, failed, rows, targets, rates = _explore(p, absorbing)
    n = order.size
    ops = order[order != failed]
    fields = [col[ops] for col in cols[:7]]
    fields[4] = fields[4] == 1  # AL labels are bools
    labels: list = list(zip(*(field.tolist() for field in fields)))
    for pos in np.flatnonzero(order == failed):
        labels.insert(int(pos), FAILED)
    initial = np.zeros(n)
    initial[0] = 1.0
    q = sparse.coo_matrix((rates, (rows, targets)), shape=(n, n))
    model = CTMC(q, initial=initial, labels=labels)
    return ExploredModel(model=model, index=dict(zip(labels, range(n))))


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
