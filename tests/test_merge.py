"""The one row-merge rule (:mod:`repro.api.merge`).

Shards, fleet sub-requests and stream chunks all fold through
:class:`~repro.api.merge.RowAggregate`; the end-to-end byte parity of
each surface is pinned in ``test_shard.py``, ``test_fleet.py`` and
``test_stream.py``.  This module pins the rule itself, including the
corner the end-to-end tests rarely reach: equal maxima with different
renderings.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro.api.merge import RowAggregate, shard_bounds, shift_row


def _part(n_rows, dist, *, sound=True, errors=None, rows=()):
    return {
        "n_rows": n_rows,
        "all_sound": sound,
        "sound_rows": n_rows if sound else 0,
        "fallback_rows": len(errors or {}),
        "errors": errors or {},
        "params": {"x": {"max_distance": dist, "bound": "1E-15"}},
        "rows": list(rows),
    }


class TestRowAggregate:
    def test_first_part_reaching_the_max_supplies_the_string(self):
        for first, second in (("1.0E-16", "1.00E-16"), ("1.00E-16", "1.0E-16")):
            aggregate = RowAggregate(["x"])
            aggregate.add_payload(_part(2, "5E-17"))
            aggregate.add_payload(_part(2, first))
            aggregate.add_payload(_part(2, second))
            assert aggregate.params({"x": "1E-15"})["x"] == {
                "max_distance": first,
                "bound": "1E-15",
                "within_bound": True,
            }

    def test_max_starts_at_zero_and_advances_only_when_greater(self):
        aggregate = RowAggregate(["x"])
        aggregate.add_payload(_part(3, "0E-20"))
        assert aggregate.params({"x": "0"})["x"]["max_distance"] == "0"
        assert aggregate.max_distances() == {"x": Decimal(0)}

    def test_report_level_keeps_the_decimal_given(self):
        winner = Decimal("2.50")
        aggregate = RowAggregate(["x", "y"])
        aggregate.add(2, distances=[("x", Decimal("2.5")), ("y", Decimal(1))])
        aggregate.add(2, distances=[("x", Decimal("2.5")), ("y", winner)])
        distances = aggregate.max_distances()
        assert list(distances) == ["x", "y"]
        assert str(distances["x"]) == "2.5"
        assert distances["y"] is winner

    def test_counters_add_and_soundness_conjoins(self):
        aggregate = RowAggregate(["x"])
        aggregate.add_payload(_part(4, "1E-17"))
        aggregate.add_payload(_part(3, "1E-17", sound=False, errors={"1": "boom"}))
        assert aggregate.trailer({"x": "1E-15"}) == {
            "all_sound": False,
            "sound_rows": 4,
            "fallback_rows": 1,
            "params": {
                "x": {
                    "max_distance": "1E-17",
                    "bound": "1E-15",
                    "within_bound": True,
                }
            },
        }
        assert aggregate.n_rows == 7

    def test_errors_and_rows_reanchor_at_the_running_offset(self):
        aggregate = RowAggregate(["x"], rows=True)
        aggregate.add_payload(
            _part(2, "0", errors={"1": "a"}, rows=[{"row": 0}, {"row": 1}])
        )
        aggregate.add_payload(
            _part(3, "0", errors={"2": "c", "0": "b"}, rows=[{"row": 0, "s": 1}])
        )
        aggregate.add(1, errors={0: "d"}, rows=[(0, True, True, {}, None)])
        assert aggregate.errors == {1: "a", 2: "b", 4: "c", 5: "d"}
        assert aggregate.rows == [
            {"row": 0}, {"row": 1}, {"row": 2, "s": 1},
            (5, True, True, {}, None),
        ]

    def test_rows_are_not_collected_unless_asked(self):
        aggregate = RowAggregate(["x"])
        aggregate.add_payload(_part(1, "0", rows=[{"row": 0}]))
        assert aggregate.rows is None


class TestHelpers:
    def test_shift_row_keeps_the_index_key_leading(self):
        shifted = shift_row({"row": 2, "sound": True}, 10)
        assert list(shifted) == ["row", "sound"]
        assert shifted["row"] == 12
        assert shift_row((1, "rest"), 4) == (5, "rest")

    @pytest.mark.parametrize("n_rows, shards", [(10, 3), (2, 5), (0, 1), (7, 7)])
    def test_shard_bounds_balance_within_one(self, n_rows, shards):
        bounds = shard_bounds(n_rows, shards)
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert bounds[0] == 0 and bounds[-1] == n_rows
        assert len(sizes) == shards
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_shard_bounds_need_a_shard(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)
