"""Symbolic oracle for the RAID-5 array build.

``transitions`` writes the RAID-5 events state by state: one Python
call per state, yielding ``(successor, rate)`` pairs in the order of
the event list in ``repro.models.raid5``'s docstring.
:func:`oracle_build` explores it with
:class:`~repro.models.builder.StateSpaceBuilder`; the array build must
match that chain bit for bit (``tests/models/test_raid5.py``).
"""

from __future__ import annotations

from repro.models.builder import ExploredModel, StateSpaceBuilder
from repro.models.raid5 import FAILED, Raid5Params


def transitions(p: Raid5Params, state, *, absorbing: bool):
    """Outgoing ``(state, rate)`` arcs of one state."""
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


def oracle_build(p: Raid5Params, *, absorbing: bool) -> ExploredModel:
    """The RAID-5 chain explored state by state from :func:`transitions`."""
    builder = StateSpaceBuilder(
        lambda s: transitions(p, s, absorbing=absorbing))
    return builder.explore(p.initial_state)
