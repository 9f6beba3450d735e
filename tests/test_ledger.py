"""Oracle ledger helpers."""
from dataclasses import asdict, astuple, replace

from hypothesis import given
from hypothesis import strategies as st

from qpsearch.ledger import OracleLedger

ledgers = st.builds(
    OracleLedger, *(st.integers(0, 2**63) for _ in range(4))
)


@given(ledgers, ledgers)
def test_helpers_equal_the_dataclasses_forms(ledger, earlier):
    assert ledger.as_dict() == asdict(ledger)
    assert list(ledger.as_dict()) == list(asdict(ledger))  # field order
    assert ledger.copy() == replace(ledger)
    delta = ledger.delta_since(earlier)
    assert type(delta) is OracleLedger
    assert astuple(delta) == tuple(a - b for a, b in zip(astuple(ledger), astuple(earlier)))


@given(ledgers)
def test_copy_and_as_dict_are_independent_of_the_original(ledger):
    before = astuple(ledger)
    copy, record = ledger.copy(), ledger.as_dict()
    assert copy is not ledger
    copy.classical_calls += 1
    record["quantum_calls"] += 1
    ledger.q_applications += 1
    assert astuple(copy) == (before[0] + 1,) + before[1:]
    assert record == dict(zip(record, before[:1] + (before[1] + 1,) + before[2:]))
    assert astuple(ledger) == before[:3] + (before[3] + 1,)
