"""Name of the array backend the geometry kernels run on.

The kernels in ``kernels`` are whole-array numpy; run reports and
benchmark environment records carry this name.
"""


def active_backend() -> str:
    return "numpy"
