import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a child process alive (such as a grid
    worker), after stopping it so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"test left {len(left)} child process(es) running: {left}")
