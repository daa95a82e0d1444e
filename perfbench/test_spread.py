"""Tests for the quartile spread that spread.py reports."""

import statistics
import unittest

from spread import parse_seeds, quartile_spread


class QuartileSpread(unittest.TestCase):
    def test_one_to_ten(self):
        # statistics.quantiles(1..10, n=4) is [2.75, 5.5, 8.25].
        self.assertAlmostEqual(quartile_spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_order_free(self):
        vals = [3.0, 9.5, 1.25, 4.0, 7.0, 2.5, 8.0, 6.0, 5.5, 10.0]
        self.assertEqual(quartile_spread(vals), quartile_spread(sorted(vals)))

    def test_matches_statistics(self):
        vals = [100.0, 101.0, 99.5, 100.2, 98.9, 100.7, 101.3, 99.9, 100.1, 100.4]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(quartile_spread(vals), (q3 - q1) / statistics.median(vals))
        self.assertLess(quartile_spread(vals), 0.02)

    def test_constant(self):
        self.assertEqual(quartile_spread([4.0] * 10), 0.0)

    def test_seed_ranges(self):
        self.assertEqual(parse_seeds("1-10"), list(range(1, 11)))
        self.assertEqual(parse_seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
