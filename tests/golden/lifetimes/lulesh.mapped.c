/* lulesh (HeCBench) — proxy application that simulates shock
 * hydrodynamics on an unstructured mesh (reduced). Fifteen kernels per
 * time step cover force calculation, acceleration, velocity and position
 * integration, kinematics and the material model; the host only needs
 * the per-element time-step constraints after each step. Unoptimized
 * variant: every field bounces between host and device on every kernel. */
#define N 400
#define STEPS 6

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

int main() {
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
  double mindtsum = 0.0;
  #pragma omp target enter data map(to: p, q, x, y, z, nodalMass, xd, yd, zd, vol, e, v, ss, work) map(alloc: fx, fy, fz, xdd, ydd, zdd, volold, delv, arealg, dtc)
  for (int s = 0; s < STEPS; s++) {
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
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      dtc[i] = arealg[i] / (ss[i] + 0.01);
    }
    double mindt = 1000.0;
    #pragma omp target update from(dtc)
    for (int i = 0; i < N; i++) {
      if (dtc[i] < mindt) { mindt = dtc[i]; }
    }
    mindtsum += mindt;
  }
  #pragma omp target exit data map(from: x, e, work) map(delete: fx, fy, fz, xdd, ydd, zdd, volold, delv, arealg, dtc) map(release: p, q, y, z, nodalMass, xd, yd, zd, vol, v, ss)
  double esum = 0.0;
  double wsum = 0.0;
  for (int i = 0; i < N; i++) {
    esum += e[i];
    wsum += work[i];
  }
  printf("dt %.6f e %.6f w %.6f x %.6f\n", mindtsum, esum, wsum, x[N / 2]);
  return 0;
}
