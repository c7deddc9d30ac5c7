"""CSV artifacts: one header row, then one row per sample with every value
written to 17 significant digits, so that it round-trips exactly."""

import csv


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([f"{x:.17g}" for x in row])
