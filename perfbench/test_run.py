"""Tests of the compare verdicts: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import unittest

from run import verdict


class VerdictTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_a_change_inside_the_bound_is_no_worse(self):
        new = [v * 0.97 for v in self.base]
        self.assertEqual(verdict(self.base, new, "higher", 0.1), "no worse")

    def test_a_drop_beyond_the_bound_is_worse(self):
        new = [v * 0.8 for v in self.base]
        self.assertEqual(verdict(self.base, new, "higher", 0.1), "worse")
        self.assertEqual(verdict(self.base, [v * 1.2 for v in self.base], "lower", 0.1), "worse")

    def test_winning_every_pair_beyond_the_spread_is_improved(self):
        new = [v * 1.05 for v in self.base]
        self.assertEqual(verdict(self.base, new, "higher", 0.1), "improved")
        self.assertEqual(verdict(self.base, [v * 0.95 for v in self.base], "lower", 0.1), "improved")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(verdict(self.base, noisy, "higher", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
