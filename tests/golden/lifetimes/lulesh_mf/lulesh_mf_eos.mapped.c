/* lulesh (HeCBench), multi-file port — material/EOS unit: the equation of
 * state and material model (6 kernels) plus the host-side time-step
 * reduction. `reduce_dtc` takes a plain (non-const) pointer but only
 * *reads* it — exactly the case where closed-world analysis must assume a
 * pessimistic host write at every call site and the link stage's real
 * cross-unit summary wins. */
#ifndef LULESH_MF_H
#define LULESH_MF_H
#define N 400
#define STEPS 6
extern double x[N];
extern double y[N];
extern double z[N];
extern double xd[N];
extern double yd[N];
extern double zd[N];
extern double xdd[N];
extern double ydd[N];
extern double zdd[N];
extern double fx[N];
extern double fy[N];
extern double fz[N];
extern double nodalMass[N];
extern double e[N];
extern double p[N];
extern double q[N];
extern double v[N];
extern double vol[N];
extern double volold[N];
extern double delv[N];
extern double ss[N];
extern double arealg[N];
extern double work[N];
extern double dtc[N];
void init_mesh();
void calc_forces();
void update_eos();
double reduce_dtc(double *d, int n);
#endif

void update_eos() {
  #pragma omp target enter data map(to: p, q, delv, e, v, ss, vol, work) map(alloc: arealg)
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    e[i] += (p[i] + q[i]) * delv[i] * 0.5;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    p[i] = e[i] * 0.3 / (v[i] + 0.1);
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    if (delv[i] < 0.0) {
      q[i] = ss[i] * (0.0 - delv[i]) * 2.0;
    } else {
      q[i] = 0.0;
    }
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    ss[i] = (p[i] + e[i]) * 0.4 + 0.8;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    arealg[i] = vol[i] * 0.6 + 0.2;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    work[i] += p[i] * delv[i];
  }
  #pragma omp target exit data map(from: p, q, e, ss, arealg, work) map(release: delv, v, vol)
}

double reduce_dtc(double *d, int n) {
  double mindt = 1000.0;
  for (int i = 0; i < n; i++) {
    if (d[i] < mindt) { mindt = d[i]; }
  }
  return mindt;
}
