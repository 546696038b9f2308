"""Cross-function unit mismatches — one per ``program-units-*`` seam."""


def wait(timeout_s):
    """Expects seconds (declared by the parameter suffix)."""
    return timeout_s


def span_ms():
    """Returns a millisecond count (declared by the name suffix)."""
    return 5.0


def poll():
    """Call seam: passes milliseconds where seconds are expected."""
    interval_ms = 50.0
    return wait(interval_ms)


def period_ms():
    """Return seam: named ``_ms`` but returns a seconds value."""
    delay_s = 2.0
    return delay_s


def tick():
    """Assign seam: ``_s`` binding fed by a ``_ms``-returning call."""
    delay_s = span_ms()
    return delay_s


def drain():
    """A suppressed call seam (tests hyphen-prefix suppression)."""
    backlog_ms = 20.0
    return wait(backlog_ms)  # repro-lint: disable=program-units
