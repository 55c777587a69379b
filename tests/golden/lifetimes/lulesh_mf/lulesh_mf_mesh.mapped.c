/* lulesh (HeCBench), multi-file port — mesh unit. Defines the node- and
 * element-centered fields and the force/acceleration phase (4 kernels).
 * Every unit carries the guarded shared header, so each file parses
 * stand-alone and the concatenation of all three units is itself a valid
 * single translation unit (the golden equivalence the link stage pins). */
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

double x[N];
double y[N];
double z[N];
double xd[N];
double yd[N];
double zd[N];
double xdd[N];
double ydd[N];
double zdd[N];
double fx[N];
double fy[N];
double fz[N];
double nodalMass[N];
double e[N];
double p[N];
double q[N];
double v[N];
double vol[N];
double volold[N];
double delv[N];
double ss[N];
double arealg[N];
double work[N];
double dtc[N];

void init_mesh() {
  for (int i = 0; i < N; i++) {
    x[i] = i * 0.01;
    y[i] = i * 0.02;
    z[i] = i * 0.015;
    xd[i] = 0.0;
    yd[i] = 0.0;
    zd[i] = 0.0;
    nodalMass[i] = 1.0 + (i % 5) * 0.1;
    e[i] = 0.5 + (i % 7) * 0.05;
    p[i] = 0.1;
    q[i] = 0.01;
    v[i] = 1.0;
    vol[i] = 1.0;
    volold[i] = 1.0;
    ss[i] = 1.2;
    work[i] = 0.0;
  }
}

void calc_forces() {
  #pragma omp target enter data map(to: p, q, x, y, z, nodalMass) map(alloc: fx, fy, fz, xdd, ydd, zdd)
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    fx[i] = 0.0 - (p[i] + q[i]) * (x[i] * 0.001 + 1.0);
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    fy[i] = 0.0 - (p[i] + q[i]) * (y[i] * 0.001 + 1.0);
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    fz[i] = 0.0 - (p[i] + q[i]) * (z[i] * 0.001 + 1.0);
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    xdd[i] = fx[i] / nodalMass[i];
    ydd[i] = fy[i] / nodalMass[i];
    zdd[i] = fz[i] / nodalMass[i];
  }
  #pragma omp target exit data map(from: fx, fy, fz, xdd, ydd, zdd) map(release: p, q, x, y, z, nodalMass)
}
