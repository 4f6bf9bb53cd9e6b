# Traced pipeline past tier-1's scale. Run with bash from an empty scratch
# directory, with the `subsum` script and a `python` that imports subsum on
# PATH; CI runs it under `timeout 120`.
#
# A planted n = 18 brute trace, about 2^18 CMP records, written by the
# installed script, parsed back and witness-checked. Tier-1's traced
# runs stop at n = 16. A copy with the outcome of line 200000 garbled
# must be refused, naming that line: the bulk decoder refuses it, and
# the per-line parser reads the whole text and numbers its lines.
# Then a powers2 n = 22 brute trace, 2^22 CMP records, under a 400 MB
# virtual memory ceiling. The CLI writes each block's lines from the
# block's sums and builds no event tuples, so its peak, near 110 MB
# max RSS, is the text it holds until the write; holding every event
# as a tuple would need about 1 GB. The solve must exit 1 (no
# solution); a MemoryError exits 2 and leaves no trace. Its stdout
# and the trace's line count are checked too.
# A planted n = 24 mitm trace is parsed back and witness-checked under
# the split-sum encoding. parse_trace decodes in bulk only a brute
# dump's CMP records; a mitm dump opens with its LIST records, so the
# per-line parser reads it whole. That costs a few milliseconds at
# most: FULL_TRACE_MAX_N = 24 caps a mitm dump at 2^12 + 2^12 - 1 =
# 8191 CMP records, which is checked here.
# The three traces' sha256 digests pin their bytes past tier-1's scale,
# and the brute n = 18 and mitm n = 24 traces must each hold exactly
# as many CMP records as the C= their solve printed.
# Last, the n = 18 trace is written over the much longer p22.txt,
# which is overwritten in place and cut: it must match t.txt's
# digest, so no byte of the old tail survives.
set -e
subsum gen --family planted --n 18 --size 17 --out inst.json
subsum solve --in inst.json --algo brute --trace t.txt > t.out
python -c "import subsum as s; ok = s.solution_witness_check(s.parse_trace(open('t.txt').read()), s.read_instance('inst.json')); print('witness', ok); raise SystemExit(ok is not True)"
sed '200000s/ [LG]T$/ XX/' t.txt > bad.txt
python - <<'PY'
import subsum as s
try:
    s.parse_trace(open('bad.txt').read())
except s.TraceError as exc:
    print(exc)
    raise SystemExit(not str(exc).startswith('line 200000: malformed record'))
raise SystemExit('bad.txt parsed')
PY
subsum gen --family planted --n 24 --seed 3 --out m24.json
subsum solve --in m24.json --algo mitm --trace m24.txt > m24.out
python -c "import subsum as s; ok = s.solution_witness_check(s.parse_trace(open('m24.txt').read()), s.read_instance('m24.json'), 'front_sum_vs_target_minus_back_sum'); print('witness', ok); raise SystemExit(ok is not True)"
subsum gen --family powers2 --n 22 --out p22.json
(ulimit -v 409600; subsum solve --in p22.json --algo brute --trace p22.txt > p22.out) || [ $? -eq 1 ]
grep -qx NOSOLUTION p22.out
test "$(wc -l < p22.txt)" -eq 4194304
printf '%s  %s\n' \
  26fb19982a7c44166b97549b8f41cf75f7889ae9aa084fb92153973075ef61c4 t.txt \
  b87855eb40787d739d106b6081b78a8ab48157ea673d6b7023afd64aaf29d211 p22.txt \
  3cc61040155c738cb7be965c731ad3b653682efee9ac7ccd901b6cf8ced6f40b m24.txt \
  | sha256sum -c -
for run in t m24; do
  test "$(grep -c '^CMP ' $run.txt)" -eq "$(sed -n 's/^C=\([0-9]*\) .*/\1/p' $run.out)"
done
test "$(grep -c '^CMP ' m24.txt)" -le 8191
subsum solve --in inst.json --algo brute --trace p22.txt > /dev/null
printf '%s  %s\n' \
  26fb19982a7c44166b97549b8f41cf75f7889ae9aa084fb92153973075ef61c4 p22.txt \
  | sha256sum -c -
