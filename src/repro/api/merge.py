"""The row-merge discipline: one fold for every surface that splits rows.

A batch audit reports, per parameter, the largest backward distance
over all rows next to the inferred bound.  Every surface that splits
the rows into contiguous parts — process shards
(:func:`repro.semantics.shard.run_witness_sharded`), fleet sub-requests
(:func:`repro.service.fleet.merge_batch_payloads`) and stream chunks
(:func:`repro.api.stream.merge_stream_trailers`) — must rebuild exactly
what one run over all rows reports.  The parts are contiguous and
balanced (:func:`shard_bounds`), and :class:`RowAggregate` is the only
implementation of the merge rule:

* counters add and ``all_sound`` conjoins;
* error rows and per-row witnesses are re-anchored at the running row
  offset (:func:`shift_row`);
* each parameter's max distance starts at ``Decimal(0)`` and advances
  only on a strictly greater value, so the first part that reaches the
  maximum supplies the rendered string — exactly as the first *row*
  reaching it does in a single run.

The fold is associative, which is what makes incremental chunk-by-chunk
merging equal to the one-shot merge and to the single-run aggregates.
Folding parts out of row order is the caller's bug: offsets come from
the parts already folded.

Stdlib only, on purpose: the cold ``repro check`` path imports this
module (through :mod:`repro.api.stream`) and must not pay for NumPy.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, TypeVar, Union

__all__ = ["RowAggregate", "shard_bounds", "shift_row"]

_ZERO = Decimal(0)

#: A per-row witness: a wire dict (``{"row": i, ...}``) or a report
#: row tuple (``(i, sound, exact, distances, error)``).
Row = TypeVar("Row", Dict[str, Any], Tuple[Any, ...])


def shard_bounds(n_rows: int, shards: int) -> List[int]:
    """Contiguous shard boundaries: ``shards + 1`` increasing offsets.

    Rows are balanced to within one: the first ``n_rows % shards``
    shards take ``ceil(n_rows / shards)`` rows, the rest the floor.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(n_rows, shards)
    bounds = [0]
    for i in range(shards):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return bounds


def shift_row(row: Row, offset: int) -> Row:
    """``row`` re-anchored ``offset`` rows later.

    Wire rows keep ``"row"`` in their leading key position (the dict
    splat preserves it), so the re-anchored row renders in the same
    key order as the single-run row.
    """
    if isinstance(row, tuple):
        return (row[0] + offset,) + row[1:]
    return {**row, "row": row["row"] + offset}


class RowAggregate:
    """A running fold over the row-contiguous parts of one audit.

    ``params`` fixes the parameter order of the merged result.  With
    ``rows=True`` the fold also collects the re-anchored per-row
    witnesses in :attr:`rows`; otherwise :attr:`rows` is ``None``.
    """

    __slots__ = (
        "n_rows", "all_sound", "sound_rows", "fallback_rows", "errors",
        "rows", "_best",
    )

    def __init__(self, params: Iterable[str], *, rows: bool = False) -> None:
        self.n_rows = 0
        self.all_sound = True
        self.sound_rows = 0
        self.fallback_rows = 0
        self.errors: Dict[int, Any] = {}
        self.rows: Optional[List[Any]] = [] if rows else None
        #: parameter -> (max distance, its rendered form as received).
        self._best: Dict[str, Tuple[Decimal, Any]] = {
            name: (_ZERO, _ZERO) for name in params
        }

    def add(
        self,
        n_rows: int,
        *,
        all_sound: bool = True,
        sound_rows: int = 0,
        fallback_rows: int = 0,
        errors: Optional[Mapping[int, Any]] = None,
        distances: Iterable[Tuple[str, Union[Decimal, str]]] = (),
        rows: Iterable[Any] = (),
    ) -> None:
        """Fold the next part: its ``n_rows`` rows follow every row so far.

        ``errors`` and ``rows`` carry part-local row indices;
        ``distances`` pairs each parameter with the part's max distance,
        as a ``Decimal`` (report level) or its rendered text (payload
        level) — the winning form is kept as given.
        """
        offset = self.n_rows
        self.all_sound = self.all_sound and bool(all_sound)
        self.sound_rows += sound_rows
        self.fallback_rows += fallback_rows
        for row, error in (errors or {}).items():
            self.errors[offset + row] = error
        best = self._best
        for name, distance in distances:
            value = distance if isinstance(distance, Decimal) else Decimal(distance)
            if value > best[name][0]:
                best[name] = (value, distance)
        if self.rows is not None:
            self.rows.extend(shift_row(row, offset) for row in rows)
        self.n_rows = offset + n_rows

    def add_payload(self, part: Mapping[str, Any]) -> None:
        """Fold one JSON-level part: a batch payload or a stream trailer.

        A trailer has no ``n_rows``, ``errors`` or ``rows``; it folds
        as a part of zero rows.
        """
        errors = part.get("errors", {})
        self.add(
            part.get("n_rows", 0),
            all_sound=part["all_sound"],
            sound_rows=part["sound_rows"],
            fallback_rows=part["fallback_rows"],
            errors={int(k): errors[k] for k in sorted(errors, key=int)},
            distances=[
                (name, entry["max_distance"])
                for name, entry in part["params"].items()
            ],
            rows=part.get("rows", ()),
        )

    def max_distances(self) -> Dict[str, Decimal]:
        """Each parameter's max distance (the report-level view)."""
        return {name: value for name, (value, _) in self._best.items()}

    def params(self, bounds: Mapping[str, str]) -> Dict[str, Dict[str, Any]]:
        """The payload ``params`` section against the bound texts."""
        return {
            name: {
                "max_distance": str(rendered),
                "bound": bounds[name],
                "within_bound": value <= Decimal(bounds[name]),
            }
            for name, (value, rendered) in self._best.items()
        }

    def trailer(self, bounds: Mapping[str, str]) -> Dict[str, Any]:
        """The aggregate fields, in stream-trailer key order."""
        return {
            "all_sound": self.all_sound,
            "sound_rows": self.sound_rows,
            "fallback_rows": self.fallback_rows,
            "params": self.params(bounds),
        }
