verdict_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if verdict_lines:
        terminalreporter.section("acceptance criteria")
        for line in verdict_lines:
            terminalreporter.write_line(line)


def make_trials_singular(monkeypatch, trials):
    """Rig the Wishart bidiagonal sampler so that each listed trial's B has
    a zero last diagonal entry, which makes it exactly singular: its
    smallest singular value comes out as 0.0."""
    import tracebounds.wishart as wishart

    real = wishart._trial_bidiagonals
    singular = set(trials)

    def rigged(d, n, rng):
        start = 0
        for a, b in real(d, n, rng):
            for i in range(start, start + len(a)):
                if i in singular:
                    a[i - start, -1] = 0.0
            start += len(a)
            yield a, b

    monkeypatch.setattr(wishart, "_trial_bidiagonals", rigged)
