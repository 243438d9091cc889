"""Self-test of the benchmark's span arithmetic, tail rank and instances.

    python3 bench/selftest.py
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import instances
from spans import Spans, summarize, tail


class SelfTime(unittest.TestCase):
    def spans(self) -> Spans:
        # main [0, 10]
        #   a [1, 4]          child b [2, 3]
        #   b [5, 9]          child b [6, 8] (recursion), whose child a [7, 7.5]
        sp = Spans("synthetic")
        main = sp.add("main", -1, 0.0, 10.0)
        a1 = sp.add("a", main, 1.0, 4.0)
        sp.add("b", a1, 2.0, 3.0)
        b1 = sp.add("b", main, 5.0, 9.0)
        b2 = sp.add("b", b1, 6.0, 8.0)
        sp.add("a", b2, 7.0, 7.5)
        return sp

    def test_self_time_subtracts_direct_children(self):
        st = summarize(self.spans())
        self.assertAlmostEqual(st["main"].self_s, 10 - 3 - 4)
        self.assertAlmostEqual(st["a"].self_s, (3 - 1) + 0.5)
        self.assertAlmostEqual(st["b"].self_s, 1 + (4 - 2) + (2 - 0.5))

    def test_inclusive_time_counts_outermost_calls_only(self):
        st = summarize(self.spans())
        self.assertEqual(st["b"].calls, 3)
        self.assertAlmostEqual(st["b"].s, 1 + 4)   # [6, 8] is inside [5, 9]
        self.assertAlmostEqual(st["a"].s, 3 + 0.5)  # [7, 7.5] has no a above
        self.assertAlmostEqual(st["main"].s, 10)

    def test_self_times_add_up_to_the_root(self):
        st = summarize(self.spans())
        self.assertAlmostEqual(sum(s.self_s for s in st.values()), 10)

    def test_dump_and_load_round_trip(self):
        sp = self.spans()
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "spans.bin"
            sp.dump(path, {"counters": {"x": 1}})
            back, header = Spans.load(path)
        self.assertEqual(header["counters"], {"x": 1})
        self.assertEqual(back.instance, "synthetic")
        self.assertEqual(list(back.parent), list(sp.parent))
        self.assertEqual(list(back.end), list(sp.end))
        self.assertEqual(summarize(back)["b"].self_s,
                         summarize(sp)["b"].self_s)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        value, rank, pct = tail(values)
        self.assertEqual((value, rank, pct), (90, 90, 90.0))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_small_sample_counts(self):
        self.assertEqual(tail(list(range(1, 12))), (1, 1, 100 / 11))
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 3, 100.0))


class Instances(unittest.TestCase):
    def test_transform_keeps_general_position_and_hull(self):
        spec = instances.Spec("tri", 9, 9000)
        base = instances.base_points(spec)
        for seed in range(5):
            pts = instances.instance_points(spec, seed)
            self.assertEqual(len(set(pts)), 9)
            self.assertTrue(all(
                instances.orientation(p, q, r) != 0
                for i, p in enumerate(pts) for j, q in enumerate(pts[i + 1:])
                for r in pts[i + j + 2:]))
            self.assertEqual(instances.convex_hull_size(pts),
                             instances.convex_hull_size(base))

    def test_same_seed_same_points(self):
        spec = instances.Spec("pt", 7, 7500)
        self.assertEqual(instances.instance_points(spec, 3),
                         instances.instance_points(spec, 3))
        self.assertNotEqual(instances.instance_points(spec, 3),
                            instances.instance_points(spec, 4))

    def test_catalan(self):
        self.assertEqual([instances.catalan(m) for m in range(8)],
                         [1, 1, 2, 5, 14, 42, 132, 429])

    def test_every_random_instance_has_a_reference(self):
        refs = instances.load_references()
        for specs in instances.WORKLOADS.values():
            for spec in specs:
                instances.expected_count(spec, refs)


if __name__ == "__main__":
    unittest.main()
