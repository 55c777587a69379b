/* ace (HeCBench) — Allen-Cahn phase-field simulation of dendritic
 * solidification. Six kernels per time step (two stencils, two field
 * updates, two buffer rotations). Unoptimized variant: implicit mappings
 * re-transfer every field six times per step. */
#define N 1024
#define STEPS 6

double phi[N];
double phinew[N];
double lap[N];
double u[N];
double unew[N];
double cur[N];

int main() {
  for (int i = 0; i < N; i++) {
    phi[i] = ((i * 13) % 29) * 0.03 - 0.4;
    u[i] = ((i * 7) % 17) * 0.01;
  }
  #pragma omp target enter data map(to: phi, u) map(alloc: lap, phinew, cur, unew)
  for (int s = 0; s < STEPS; s++) {
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      lap[i] = phi[i - 1] + phi[i + 1] - 2.0 * phi[i];
    }
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      phinew[i] = phi[i] + 0.2 * lap[i] - 0.05 * phi[i] * (phi[i] * phi[i] - 1.0);
    }
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      cur[i] = u[i - 1] + u[i + 1] - 2.0 * u[i];
    }
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      unew[i] = u[i] + 0.1 * cur[i] + 0.25 * (phinew[i] - phi[i]);
    }
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      phi[i] = phinew[i];
    }
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      u[i] = unew[i];
    }
  }
  #pragma omp target exit data map(from: phi, u) map(delete: lap, phinew, cur, unew)
  double phisum = 0.0;
  double usum = 0.0;
  for (int i = 0; i < N; i++) {
    phisum += phi[i];
    usum += u[i];
  }
  printf("phi %.6f u %.6f\n", phisum, usum);
  return 0;
}
