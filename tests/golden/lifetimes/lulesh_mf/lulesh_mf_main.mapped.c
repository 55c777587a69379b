/* lulesh (HeCBench), multi-file port — driver unit: the time-step loop
 * with the integration and kinematics kernels (5 kernels), calling into
 * the mesh unit (forces) and the EOS unit (material model, time-step
 * reduction). The kernels and the last host readers of `e`/`work` live in
 * different files, so whole-program liveness across unit boundaries is
 * what keeps the exit copies — and the cross-unit summaries are what keep
 * `reduce_dtc` from forcing a pessimistic write-back every step. */
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

int main() {
  init_mesh();
  double mindtsum = 0.0;
  #pragma omp target enter data map(to: xd, yd, zd, x, y, z, vol, ss, nodalMass, p, q, e, v, work) map(alloc: xdd, ydd, zdd, volold, delv, arealg, dtc, fx, fy, fz)
  for (int s = 0; s < STEPS; s++) {
    calc_forces();
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      xd[i] += xdd[i] * 0.01;
      yd[i] += ydd[i] * 0.01;
      zd[i] += zdd[i] * 0.01;
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      x[i] += xd[i] * 0.01;
      y[i] += yd[i] * 0.01;
      z[i] += zd[i] * 0.01;
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      volold[i] = vol[i];
      vol[i] = 1.0 + (x[i] + y[i] + z[i]) * 0.001;
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      delv[i] = vol[i] - volold[i];
    }
    update_eos();
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      dtc[i] = arealg[i] / (ss[i] + 0.01);
    }
    #pragma omp target update from(dtc)
    mindtsum += reduce_dtc(dtc, N);
  }
  #pragma omp target exit data map(from: x, e, work) map(delete: xdd, ydd, zdd, volold, delv, arealg, dtc, fx, fy, fz) map(release: xd, yd, zd, y, z, vol, ss, nodalMass, p, q, v)
  double esum = 0.0;
  double wsum = 0.0;
  for (int i = 0; i < N; i++) {
    esum += e[i];
    wsum += work[i];
  }
  printf("dt %.6f e %.6f w %.6f x %.6f\n", mindtsum, esum, wsum, x[N / 2]);
  return 0;
}
