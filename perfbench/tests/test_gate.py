"""The correctness gate rejects what it must."""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gate import check_sample  # noqa: E402

REFERENCE = {"cells": 4, "results": "abc"}
REPORT_REFERENCE = {
    "cells": 3,
    "figures": {
        "fig06": {"results": "r1", "artifact": "a1", "seeded": False, "cells": 2},
        "fig14": {"results": "r2", "artifact": "a2", "seeded": True, "cells": 1},
    },
}


def grid_sample(**overrides):
    sample = {"planned": 4, "executed": 4, "reused": 0, "returned": 4,
              "results": "abc"}
    sample.update(overrides)
    return sample


def report_sample():
    return {"planned": 3, "executed": 2, "reused": 1, "returned": 3,
            "figures": copy.deepcopy(REPORT_REFERENCE["figures"])}


def test_matching_samples_pass():
    assert check_sample("sweep-cold", grid_sample(), REFERENCE) == []
    assert check_sample(
        "sweep-resume", grid_sample(executed=0, reused=4), REFERENCE) == []
    assert check_sample("paper-report", report_sample(), REPORT_REFERENCE) == []


def test_tampered_result_is_rejected():
    problems = check_sample("perf-grid", grid_sample(results="abd"), REFERENCE)
    assert problems == ["results digest differs from reference"]


def test_tampered_artifact_is_rejected():
    sample = report_sample()
    sample["figures"]["fig14"]["artifact"] = "tampered"
    assert check_sample("paper-report", sample, REPORT_REFERENCE) == [
        "fig14: artifact digest differs from reference"]


def test_missing_figure_is_rejected():
    sample = report_sample()
    del sample["figures"]["fig06"]
    assert check_sample("paper-report", sample, REPORT_REFERENCE)


def test_resume_that_executed_cells_is_rejected():
    sample = grid_sample(executed=1, reused=3)
    assert check_sample("sweep-resume", sample, REFERENCE) == [
        "resume executed 1 cells"]


def test_lost_cells_are_rejected():
    problems = check_sample("perf-grid", grid_sample(returned=3), REFERENCE)
    assert problems == ["returned 3 of 4 cells"]
    problems = check_sample("perf-grid", grid_sample(planned=5, executed=5,
                                                     returned=5), REFERENCE)
    assert problems == ["planned 5 cells, reference has 4"]
