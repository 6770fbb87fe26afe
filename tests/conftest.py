import sys
from pathlib import Path

import pytest

# make sibling test helpers (qp_oracle, test_nets utilities) importable
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def recorded_calls():
    """filter_action arguments of a short shielded training run and of the adversarial protocol."""
    from test_shield import record_adversarial_calls, record_training_calls

    return {"training": record_training_calls(12), "adversarial": record_adversarial_calls(10, 100, 61)}
