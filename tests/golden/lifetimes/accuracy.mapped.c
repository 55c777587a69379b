/* accuracy (HeCBench) — classification accuracy of a neural network.
 * Unoptimized variant: no explicit data mappings; every kernel launch
 * relies on the implicit tofrom rules, so the logits matrix is re-sent
 * for every batch. */
#define NSAMPLES 1024
#define NCLASS 8
#define BATCHES 8
#define BATCH 128

double logits[NSAMPLES * NCLASS];
int labels[NSAMPLES];
int hits[NSAMPLES];

int main() {
  double threshold = 0.0005;
  for (int i = 0; i < NSAMPLES; i++) {
    labels[i] = (i * 5 + 3) % NCLASS;
    for (int c = 0; c < NCLASS; c++) {
      logits[i * NCLASS + c] = ((i * 7 + c * 13) % 97) * 0.01;
    }
    if (i % 4) {
      logits[i * NCLASS + labels[i]] += 2.0;
    }
  }
  int correct = 0;
  #pragma omp target enter data map(to: logits, labels) map(alloc: hits)
  for (int b = 0; b < BATCHES; b++) {
    int base = b * BATCH;
    #pragma omp target teams distribute parallel for firstprivate(base, threshold)
    for (int i = 0; i < BATCH; i++) {
      int s = base + i;
      int best = 0;
      for (int c = 1; c < NCLASS; c++) {
        if (logits[s * NCLASS + c] > logits[s * NCLASS + best] + threshold) {
          best = c;
        }
      }
      hits[s] = (best == labels[s]);
    }
    #pragma omp target update from(hits)
    for (int i = 0; i < BATCH; i++) {
      correct += hits[base + i];
    }
  }
  #pragma omp target exit data map(delete: hits) map(release: logits, labels)
  printf("accuracy %d / %d\n", correct, NSAMPLES);
  return 0;
}
