"""The correctness gate every sample passes through.

A sample is correct when every planned cell returned, the resume
workload executed nothing, and its digests equal the oracle's for the
same seed. A sample that fails the gate counts all its cells as failed:
a set digest cannot say which cell is wrong.
"""

from __future__ import annotations

from typing import Any, Dict, List


def check_sample(
    workload: str, sample: Dict[str, Any], reference: Dict[str, Any]
) -> List[str]:
    """Every reason ``sample`` is not correct (empty when it is)."""
    problems: List[str] = []
    planned = sample["planned"]
    if planned != reference["cells"]:
        problems.append(f"planned {planned} cells, reference has {reference['cells']}")
    if sample["executed"] + sample["reused"] != planned:
        problems.append(
            f"executed {sample['executed']} + reused {sample['reused']} "
            f"!= planned {planned}"
        )
    if sample["returned"] != planned:
        problems.append(f"returned {sample['returned']} of {planned} cells")
    if workload == "sweep-resume" and sample["executed"] != 0:
        problems.append(f"resume executed {sample['executed']} cells")
    if workload == "sweep-cold" and sample["reused"] != 0:
        problems.append(f"cold run reused {sample['reused']} cells")
    if workload == "paper-report":
        expected = reference["figures"]
        got = sample["figures"]
        if sorted(got) != sorted(expected):
            problems.append(f"figures {sorted(got)} != {sorted(expected)}")
        for name in sorted(set(got) & set(expected)):
            for part in ("results", "artifact"):
                if got[name][part] != expected[name][part]:
                    problems.append(f"{name}: {part} digest differs from reference")
    elif sample["results"] != reference["results"]:
        problems.append("results digest differs from reference")
    return problems
