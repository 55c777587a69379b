/* nw (Rodinia) — Needleman-Wunsch global optimization for DNA sequence
 * alignment, processed in anti-diagonal rounds (forward scoring sweep
 * plus traceback buffer rotation). Unoptimized variant: the sequences
 * and score rows are re-sent for every round, and the gap penalty and
 * match bonus scalars ride along implicitly. */
#define LEN 1024
#define ROUNDS 6

int seq1[LEN];
int seq2[LEN];
int score[LEN];
int back[LEN];

int main() {
  int penalty = 2;
  int match = 3;
  for (int i = 0; i < LEN; i++) {
    seq1[i] = (i * 7 + 1) % 4;
    seq2[i] = (i * 11 + 2) % 4;
    score[i] = 0;
    back[i] = 0;
  }
  #pragma omp target enter data map(to: back, seq1, seq2, score)
  for (int r = 0; r < ROUNDS; r++) {
    #pragma omp target teams distribute parallel for firstprivate(match, penalty)
    for (int i = 1; i < LEN; i++) {
      int diag = back[i - 1] + (seq1[i] == seq2[i]) * match - (seq1[i] != seq2[i]) * penalty;
      int gap1 = back[i] - penalty;
      int gap2 = score[i - 1] - penalty;
      int best = diag;
      if (gap1 > best) { best = gap1; }
      if (gap2 > best) { best = gap2; }
      score[i] = best;
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < LEN; i++) {
      back[i] = score[i];
    }
  }
  #pragma omp target exit data map(from: score) map(release: back, seq1, seq2)
  int total = 0;
  for (int i = 0; i < LEN; i++) {
    total += score[i];
  }
  printf("alignment %d %d\n", total, score[LEN - 1]);
  return 0;
}
