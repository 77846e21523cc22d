import threading
import time

import pytest

from pdial import _http


class TestFanOutMap:
    def test_results_in_input_order(self):
        _http.set_fan_out(3)
        # later items finish first
        out = _http.fan_out_map(
            lambda i: time.sleep(0.002 * (8 - i)) or i * i, list(range(8))
        )
        assert out == [i * i for i in range(8)]

    def test_empty_and_single_item_run_inline(self):
        assert _http.fan_out_map(lambda i: i, []) == []
        assert _http.fan_out_map(
            lambda _: threading.current_thread(), ["only"]
        ) == [threading.main_thread()]

    def test_at_most_fan_out_jobs_at_once(self):
        _http.set_fan_out(2)
        lock = threading.Lock()
        state = {"now": 0, "max": 0}

        def job(_):
            with lock:
                state["now"] += 1
                state["max"] = max(state["max"], state["now"])
            time.sleep(0.01)
            with lock:
                state["now"] -= 1

        _http.fan_out_map(job, list(range(10)))
        assert state["max"] == 2

    def test_no_job_starts_after_a_failure(self):
        _http.set_fan_out(2)
        started = []

        def job(i):
            started.append(i)
            if i == 1:
                raise ValueError("item 1")
            time.sleep(0.02)

        with pytest.raises(ValueError, match="item 1"):
            _http.fan_out_map(job, list(range(20)))
        assert sorted(started) == [0, 1]

    def test_error_of_earliest_failing_item_is_raised(self):
        # item 1 fails first, while item 0 is still running and fails later
        _http.set_fan_out(2)

        def job(i):
            if i == 0:
                time.sleep(0.05)
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            _http.fan_out_map(job, [0, 1, 2])
