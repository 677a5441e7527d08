"""Run the acceptance suite after every other test.

`tests/test_acceptance.py` trains the toy model 3 configurations x 5 seeds
and takes about 9 minutes, 8 of them in those 15 trainings; the rest of the
suite takes about 1 minute (one BLAS thread on a 2-vCPU Xeon VM).
`pytest -m "not acceptance"` runs the rest alone.
Running it last reports the unit tests first. Every test still runs, and
the order within each group is unchanged.
"""

ACCEPTANCE_MODULE = "test_acceptance.py"


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == ACCEPTANCE_MODULE)
