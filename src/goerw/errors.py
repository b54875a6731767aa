"""Error types, the exit-code policy and the Monte Carlo trial bounds. An
InputError exits 2 and a RefusalError 1; anything else, a ValueError from a
broken invariant among them, is a bug and ends in a traceback."""


class InputError(ValueError):
    """The caller's input is wrong. A ValueError, so library callers that
    catch ValueError keep working."""


class RefusalError(RuntimeError):
    """An experiment declined to run because its preconditions would make
    the answer meaningless (too close to criticality, too few conditioned
    samples, and so on). It leaves no output files."""


# most trials one Monte Carlo run takes: the estimates run them in lockstep on
# arrays and simulate keeps each run's summary, so a larger count would
# exhaust memory or numpy's index range
MAX_TRIALS = 10_000_000


def _enough_trials(trials: int, least: int = 100) -> None:
    """Refuse a trial count below least or above MAX_TRIALS. The floor is
    100 for the estimates that report a standard error or a z score, and 1
    for simulate and the concentration experiment, which report neither."""
    if trials < least:
        raise InputError(f"need at least {least} trials")
    if trials > MAX_TRIALS:
        raise InputError(f"need at most {MAX_TRIALS} trials, got {trials}")
