"""Output checks shared by the workloads."""


class CheckError(AssertionError):
    """An output of the package disagrees with what the inputs imply."""


def require(condition: bool, message: str) -> None:
    # A plain ``assert`` would vanish under ``python -O``.
    if not condition:
        raise CheckError(message)
