"""Task run inside sweep pool workers by the CLI tests.

It imports nothing beyond the standard library, so when it runs in a fresh
worker, ``numpy`` is loaded there only if the worker loaded it itself.
"""

import os
import sys


def worker_view(name: str) -> tuple[str | None, bool]:
    """The worker's value of environment variable ``name``, and whether the
    worker has imported numpy yet."""
    return os.environ.get(name), "numpy" in sys.modules
