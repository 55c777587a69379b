/* hotspot (Rodinia) — thermal simulation estimating processor temperature
 * from the floor plan. One ping-pong stencil kernel per time step; the
 * six physical constants ride along as scalars. Unoptimized variant:
 * the temperature and power grids plus all six scalars are re-mapped on
 * every step. */
#define GRID 32
#define CELLS 1024
#define STEPS 10

double temp[CELLS];
double power[CELLS];
double result[CELLS];

int main() {
  double cap = 0.5;
  double rx = 1.5;
  double ry = 1.2;
  double rz = 80.0;
  double amb = 80.0;
  double stepsize = 0.0625;
  for (int i = 0; i < CELLS; i++) {
    temp[i] = 80.0 + ((i * 7) % 13) * 0.5;
    power[i] = ((i * 11) % 19) * 0.002;
  }
  #pragma omp target enter data map(to: temp, result, power)
  for (int s = 0; s < STEPS; s++) {
    #pragma omp target teams distribute parallel for firstprivate(s, stepsize, cap, ry, rx, amb, rz)
    for (int idx = 0; idx < CELLS; idx++) {
      int r = idx / GRID;
      int c = idx % GRID;
      double up = temp[idx];
      double down = temp[idx];
      double left = temp[idx];
      double right = temp[idx];
      if (s % 2) {
        up = result[idx];
        down = result[idx];
        left = result[idx];
        right = result[idx];
        if (r > 0) { up = result[idx - GRID]; }
        if (r < GRID - 1) { down = result[idx + GRID]; }
        if (c > 0) { left = result[idx - 1]; }
        if (c < GRID - 1) { right = result[idx + 1]; }
        double center = result[idx];
        double delta = (stepsize / cap) * (power[idx]
          + (up + down - 2.0 * center) / ry
          + (left + right - 2.0 * center) / rx
          + (amb - center) / rz);
        temp[idx] = center + delta;
      } else {
        if (r > 0) { up = temp[idx - GRID]; }
        if (r < GRID - 1) { down = temp[idx + GRID]; }
        if (c > 0) { left = temp[idx - 1]; }
        if (c < GRID - 1) { right = temp[idx + 1]; }
        double center = temp[idx];
        double delta = (stepsize / cap) * (power[idx]
          + (up + down - 2.0 * center) / ry
          + (left + right - 2.0 * center) / rx
          + (amb - center) / rz);
        result[idx] = center + delta;
      }
    }
  }
  #pragma omp target exit data map(from: temp, result) map(release: power)
  double peak = 0.0;
  for (int i = 0; i < CELLS; i++) {
    if (temp[i] > peak) { peak = temp[i]; }
    if (result[i] > peak) { peak = result[i]; }
  }
  printf("peak %.6f\n", peak);
  return 0;
}
