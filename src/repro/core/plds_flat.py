"""``PLDSFlat``: an alias of the slot-indexed :class:`~repro.core.plds.PLDS`.

The alias stays because the serving-path benchmark
(``perfbench/spans.py``) imports ``PLDSFlat`` and wraps
``PLDSFlat.to_snapshot`` and ``PLDSFlat.publish_epoch`` to attribute
wall time to service layers.  New code should import
:class:`repro.core.plds.PLDS`.
"""

from __future__ import annotations

from .plds import PLDS

__all__ = ["PLDSFlat"]

PLDSFlat = PLDS
