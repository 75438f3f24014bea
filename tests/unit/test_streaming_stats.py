"""Unit tests for StreamStats accounting."""

import json

import pytest

from repro.streaming.stats import StreamStats


class TestStreamStats:
    def test_defaults(self):
        stats = StreamStats()
        assert stats.total_seconds == 0.0
        assert stats.average_update_seconds == 0.0
        assert stats.total_distance_computations == 0

    def test_total_seconds(self):
        stats = StreamStats(stream_seconds=1.5, postprocess_seconds=0.5)
        assert stats.total_seconds == pytest.approx(2.0)

    def test_average_update_time(self):
        stats = StreamStats(stream_seconds=2.0, elements_processed=100)
        assert stats.average_update_seconds == pytest.approx(0.02)

    def test_record_stored_tracks_peak(self):
        stats = StreamStats()
        stats.record_stored(10)
        stats.record_stored(25)
        stats.record_stored(5)
        assert stats.peak_stored_elements == 25
        assert stats.final_stored_elements == 5

    def test_total_distance_computations(self):
        stats = StreamStats(
            stream_distance_computations=100, postprocess_distance_computations=40
        )
        assert stats.total_distance_computations == 140

    def test_as_dict_contains_extra(self):
        stats = StreamStats(extra={"num_guesses": 12})
        data = stats.as_dict()
        assert data["num_guesses"] == 12
        assert "total_seconds" in data
        assert "average_update_seconds" in data

    def test_as_dict_round_trips_through_json_with_string_extras(self):
        """Regression: ``extra`` holds strings too, not only numbers.

        The annotation used to claim ``Dict[str, float]`` while callers
        stored strings there; ``as_dict`` must stay JSON-serializable
        either way.
        """
        stats = StreamStats(
            elements_processed=42, extra={"summarizer": "gmm", "num_guesses": 9}
        )
        data = stats.as_dict()
        restored = json.loads(json.dumps(data))
        assert restored == data
        assert restored["summarizer"] == "gmm"
        assert restored["num_guesses"] == 9
