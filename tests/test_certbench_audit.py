"""certbench's audit path on a tiny workload: the votes, certificates and flip
search of harness.certify_image's audit branch, untraced, traced, and traced
with the stacks on the stack pool."""

import pytest

from patchcert.ablation import AblationSpec
from patchcert.vit import ViTConfig

from certbench import harness
from references import forced_stack_pool

TINY = harness.Recipe("tiny", ViTConfig(h=16, w=16, c=1, p=4, d=16, heads=2, layers=1, k=2),
                      b_train=3, samples=32, epochs=2)
AUDIT = harness.Workload("tiny-audit", "test", "audit", TINY, AblationSpec("column", 3, 2, 1),
                         (1, 2, 4), "oracle", rate=2.0, audit_m=2)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_audit_run_passes_its_gate(tmp_path, trace):
    result = harness.run(AUDIT, 1, 1, trace, tmp_path)
    assert result["failed"] == 0 and result["correct"], result["failures"]
    assert result["attempted"] > 0


def test_traced_audit_run_passes_its_gate_on_the_stack_pool(tmp_path):
    # the tracer and count_macs see every product of stacks that overlap
    with forced_stack_pool():
        result = harness.run(AUDIT, 1, 1, True, tmp_path)
    assert result["failed"] == 0 and result["correct"], result["failures"]
    assert result["attempted"] > 0
