"""Sequential Level Data Structure (LDS) baseline.

The classic sequential level structures of Bhattacharya et al. [13] and
Henzinger et al. [47] (paper Section 5.2), augmented with the paper's
coreness-estimation rule (Section 5.6) — this is exactly the paper's *LDS*
baseline implementation.

The difference from the PLDS is the movement discipline: vertices move
**one level at a time**, cascading one vertex at a time.  In particular a
deletion can trigger the repeated one-level cascades of the paper's
Figure 4, whereas the PLDS computes a desire-level and moves each vertex
exactly once.  Sharing the underlying structures with :class:`PLDS` makes
the comparison apples-to-apples.

Being sequential, its simulated running time is its *work*; the metered
depth equals the work.
"""

from __future__ import annotations

from ..graphs.streams import Batch
from ..obs import metrics as _metrics
from .plds import PLDS, UpdateResult

__all__ = ["LDS"]


class LDS(PLDS):
    """Sequential level data structure with single-edge-update semantics.

    Accepts batches for interface compatibility, but processes the updates
    one edge at a time (there is no intra-batch parallelism to exploit).
    """

    _SPAN_NAME = "lds.update"

    def _apply_batch(self, batch: Batch) -> UpdateResult:
        self._validate_batch(batch)
        if self._undo is not None:
            self._undo.batches.append(batch)
        result = UpdateResult()
        self._touched = set()

        if self.track_orientation:
            for e in batch.deletions:
                d = self._orient.get(e)
                if d is None:
                    d = self.orientation_of(*e)
                result.oriented_deletions.append(d)
                self._note_orient(e)
                self._orient.pop(e, None)

        moved: set[int] = set()
        for u, v in batch.insertions:
            self._insert_edge_struct(u, v)
            self.tracker.add(work=2, depth=2)
            self._fix_insertion_cascade({u, v}, moved)
        for u, v in batch.deletions:
            self._delete_edge_struct(u, v)
            self.tracker.add(work=2, depth=2)
            self._fix_deletion_cascade({u, v}, moved)
        result.moved_vertices = moved

        if self.track_orientation:
            self._finish_orientation(batch, result)
        self._maybe_rebuild()
        return result

    # -- cascades (sequential: depth is charged equal to work) ----------

    def _fix_insertion_cascade(self, seeds: set[int], moved: set[int]) -> None:
        tracker = self.tracker
        bounds = self._inv1_bound_int
        slot_of = self._slot_of
        lv = self._lv
        ups = self._up
        vid = self._vid
        mreg = _metrics.ACTIVE
        queue = set(seeds)
        while queue:
            v = queue.pop()
            i = slot_of.get(v)
            if i is None:
                continue
            while len(ups[i]) > bounds[lv[i]]:
                if mreg is not None:
                    mreg.inc("lds.cascade_moves", phase="insert")
                before = tracker.work
                marked = self._move_up_to_slot(i, lv[i] + 1)
                # sequential: the move contributes its work to the depth too
                tracker.add(work=0, depth=tracker.work - before)
                moved.add(v)
                # The queue holds ids fed in sorted order: set-pop order
                # on small ints is reproducible across runs, which keeps
                # the metered cascade deterministic.
                queue.update(sorted(vid[j] for j in marked))

    def _fix_deletion_cascade(self, seeds: set[int], moved: set[int]) -> None:
        tracker = self.tracker
        thresholds = self._inv2_thresh_int
        slot_of = self._slot_of
        lv = self._lv
        ups = self._up
        downs = self._down
        vid = self._vid
        mreg = _metrics.ACTIVE
        queue = set(seeds)
        while queue:
            v = queue.pop()
            i = slot_of.get(v)
            if i is None or lv[i] == 0:
                continue
            descended = False
            while lv[i] > 0:
                below = downs[i].get(lv[i] - 1)
                up_star = len(ups[i]) + (len(below) if below else 0)
                if up_star >= thresholds[lv[i]]:
                    break
                if mreg is not None:
                    mreg.inc("lds.cascade_moves", phase="delete")
                before = tracker.work
                weakened = self._move_down_slot(i, lv[i] - 1)
                tracker.add(work=0, depth=tracker.work - before)
                descended = True
                queue.update(sorted(vid[j] for j in weakened))
            if descended:
                moved.add(v)
