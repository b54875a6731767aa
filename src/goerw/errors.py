"""Package-level error types and the Monte Carlo trial floor."""


class RefusalError(RuntimeError):
    """An experiment declined to run because its preconditions would make
    the answer meaningless (too close to criticality, too few conditioned
    samples, and so on). Runners turn this into a nonzero exit with no
    output files."""


def _enough_trials(trials: int) -> None:
    if trials < 100:
        raise ValueError("need at least 100 trials")
