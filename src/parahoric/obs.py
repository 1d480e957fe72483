"""Opt-in counters that show what a run of the library did.

Counting is off until a caller opens :func:`recording`; inside it, each
:func:`count` adds to the dict that :func:`recording` yields.  The dict lives
in a :class:`contextvars.ContextVar`, so a thread or an asyncio task counts
only into the recording it opened, and an inner recording hides the outer
one until it closes.  Off, a count is one context-variable lookup.

Counter names are ``<module>.<function>.<what>``:

* ``rootdata.build_root_datum.hits``: builds whose spec structure was
  already memoized;
* ``rootdata.reflection_rows.built``: rows of
  :meth:`parahoric.rootdata.RootDatum.reflection_row` built, one per
  ambient root first met as a simple root of a facet quotient, so
  :func:`parahoric.affine.parahoric_model` builds them (through
  :func:`parahoric.rootdata.sub_root_datum`), and one per simple root in
  J first met by :meth:`parahoric.rootdata.RootDatum.stabilizer_orbits`,
  which Freudenthal's recursion calls, so a spec's first characters build
  the rows of its simple roots;
* ``rootdata.sum_rows.built``: rows of
  :meth:`parahoric.rootdata.RootDatum.sum_row` built, for the same roots,
  by the closedness test of :func:`parahoric.rootdata.sub_root_datum`;
* ``rootdata.sub_root_datum.builds``: quotient data built and checked, one
  per :func:`parahoric.affine.parahoric_model` call;
* ``rootdata.quotient_linear_tables.built``: the
  :meth:`parahoric.rootdata.RootDatum.linear_tables` of quotient data
  built, each on first read, so a facet sweep that models, classifies and
  certifies builds none, and a character computed or expanded over a
  quotient builds its quotient's;
* ``charring.freudenthal.runs``: characters computed by Freudenthal's
  recursion, that is misses of ``chi_cache`` (a hit counts nothing); a
  minuscule or zero highest weight, whose character is stored as its orbit
  sum without the recursion, counts as a run with one dominant weight and
  no string steps, chamber walks, walk steps or norm cuts;
* ``charring.freudenthal.dominant_weights``: dominant weights of those
  characters;
* ``charring.freudenthal.string_steps``: weights visited on their
  alpha-strings;
* ``charring.freudenthal.chamber_walks``: chamber walks run on them, one
  per string step whose weight, walked on from the string's last dominant
  conjugate, is not dominant;
* ``charring.freudenthal.walk_steps``: simple reflections those walks take;
* ``charring.freudenthal.norm_cuts``: alpha-strings ended by the norm
  bound, at a weight longer than the highest weight, which is neither
  visited nor walked;
* ``levicert.from_parahoric.walks``: layer weights that
  :func:`parahoric.levicert.from_parahoric` walks by the dot action to
  expand their layer, those neither dominant nor with a pairing -1 with a
  simple coroot of the quotient; never one in a simply-laced type.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["count", "enabled", "recording"]

_counters: ContextVar[dict[str, int] | None] = ContextVar("parahoric.obs", default=None)


def enabled() -> bool:
    """True inside :func:`recording`."""
    return _counters.get() is not None


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to the counter ``name`` if a recording is open."""
    counters = _counters.get()
    if counters is not None:
        counters[name] = counters.get(name, 0) + n


@contextmanager
def recording():
    """Record counts in a new dict, yielded, until the block ends."""
    counters: dict[str, int] = {}
    token = _counters.set(counters)
    try:
        yield counters
    finally:
        _counters.reset(token)
