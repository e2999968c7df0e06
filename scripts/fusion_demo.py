#!/usr/bin/env python3
"""Build the fundamental family W_l by fusion and inspect its structure.

For l = 1, 2, 3 the image of the specialized R matrix at (q^(-2l-2), 1)
is computed, its classical content printed, and the truncation to both
quantum affine levels compared block by block.
"""

import sys
import time

sys.path.insert(0, "src")

from qosc.fundrep import truncate_image_span
from qosc.rmatrix import (
    check_admissible,
    compare_spans,
    fuse,
    hw_content,
    make_c_pair,
    solve_R,
)
from qosc.scalars import ONE, parse_scalar

M, CUTOFF = 2, 6

for l in (1, 2, 3):
    t0 = time.time()
    sigma = ("+", "+") if l % 2 == 0 else ("+", "-")
    zc = parse_scalar("q^-%d" % (2 * l + 2))
    check_admissible("c", sigma, [zc, ONE])
    pair = make_c_pair(M, sigma, cutoff=CUTOFF, level="bold")
    rho, dec = solve_R(pair, full_window=True)
    image = fuse(pair, rho, dec, zc, ONE)
    content = hw_content(image, pair)
    print(
        "W_%d  via sigma=(%s,%s) at q^-%d:  content %s  [%.1fs]"
        % (l, *sigma, 2 * l + 2, sorted(k for k, v in content.items() if v), time.time() - t0)
    )
    for side in ("underline", "overline"):
        pair_l = make_c_pair(M, sigma, cutoff=CUTOFF, level=side)
        rho_l, dec_l = solve_R(pair_l, full_window=True)
        img_l = fuse(pair_l, rho_l, dec_l, zc, ONE)
        tr = truncate_image_span(image, pair_l.target)
        cmp = compare_spans(tr, img_l)
        print(
            "   truncation to %-9s dim %3d  matches level image: %s"
            % (side, tr.dim(), cmp["pass"])
        )
