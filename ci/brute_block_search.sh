# Counters-only solves past tier-1's scale. Run with bash from an empty
# scratch directory, with the `subsum` script on PATH; CI runs it under
# `timeout 120`.
#
# Counters-only brute solves at n = 24 test 2^14 blocks of 2^10
# masks, each with one str.find over the block's hex text of low
# sums. powers2 has no solution, so every mask is visited and the
# counters are exact; the planted seed 3 instance's mask must check
# to MATCH.
#
# A counters-only mitm solve at n = 40, past tier-1's largest mitm row
# (n = 34), builds two lists of 2^20 sums. On powers2 every front sum is
# below every target - back sum, so the scan passes the whole front list:
# C = M = 2^20 and T = 2^20 * (1 + 4 + 40), the scan's C plus 2 * 2^21
# for the generated and listed sums plus two sort charges of 20 * 2^20.
set -e
subsum gen --family powers2 --n 24 --out p24.json
subsum solve --in p24.json --algo brute > p24.out || [ $? -eq 1 ]
printf 'NOSOLUTION\nC=16777216 M=1 T=33554432\n' | diff - p24.out
subsum gen --family planted --n 24 --seed 3 --out m24.json
subsum solve --in m24.json --algo brute > b24.out
mask=$(sed -n 's/^SOLUTION \([0-9a-f]*\) .*/\1/p' b24.out)
subsum check --in m24.json --mask "$mask" | grep "^MATCH $mask "
subsum gen --family powers2 --n 40 --out p40.json
subsum solve --in p40.json --algo mitm > p40.out || [ $? -eq 1 ]
printf 'NOSOLUTION\nC=1048576 M=1048576 T=47185920\n' | diff - p40.out
