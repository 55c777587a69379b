/* xsbench (HeCBench) — key computational kernel of the Monte-Carlo
 * neutron transport algorithm: randomized macroscopic cross-section
 * lookups over the nuclide grids, one batch of particle histories per
 * outer iteration. Unoptimized variant: the read-only cross-section
 * tables are re-sent for every batch. */
#define GRIDPTS 2048
#define LOOKUPS 1024
#define BATCHES 5

double xs_total[GRIDPTS];
double xs_fission[GRIDPTS];
double results[LOOKUPS];

int main() {
  double flux = 0.7;
  for (int g = 0; g < GRIDPTS; g++) {
    xs_total[g] = ((g * 13) % 101) * 0.01 + 0.1;
    xs_fission[g] = ((g * 7) % 53) * 0.005;
  }
  for (int l = 0; l < LOOKUPS; l++) {
    results[l] = 0.0;
  }
  #pragma omp target enter data map(to: xs_total, xs_fission, results)
  for (int b = 0; b < BATCHES; b++) {
    #pragma omp target teams distribute parallel for firstprivate(b, flux)
    for (int l = 0; l < LOOKUPS; l++) {
      int h = (l * 97 + b * 31 + l * l) % GRIDPTS;
      results[l] += xs_total[h] * flux + xs_fission[h] * (1.0 - flux);
    }
  }
  #pragma omp target exit data map(from: results) map(release: xs_total, xs_fission)
  double verification = 0.0;
  for (int l = 0; l < LOOKUPS; l++) {
    verification += results[l];
  }
  printf("verification %.6f\n", verification);
  return 0;
}
