/* clenergy (HeCBench) — evaluates electrostatic potentials on a lattice
 * by direct Coulomb summation, one z-slice at a time. Unoptimized
 * variant: the atom arrays and the small grid-descriptor struct are
 * re-transferred for every slice. */
#define NATOMS 128
#define VOLS 512
#define SLICES 6

struct Grid {
  double spacing;
  double originx;
  double zscale;
};

struct Grid grid;
double atomx[NATOMS];
double atomy[NATOMS];
double atomq[NATOMS];
double energy[VOLS];
double potential[VOLS];

int main() {
  grid.spacing = 0.5;
  grid.originx = 0.0 - 8.0;
  grid.zscale = 1.25;
  for (int a = 0; a < NATOMS; a++) {
    atomx[a] = ((a * 13) % 41) * 0.4 - 8.0;
    atomy[a] = ((a * 29) % 37) * 0.45 - 8.0;
    atomq[a] = ((a % 7) - 3) * 0.25;
  }
  for (int v = 0; v < VOLS; v++) {
    potential[v] = 0.0;
  }
  #pragma omp target enter data map(to: grid, atomx, atomy, atomq, potential) map(alloc: energy)
  for (int slice = 0; slice < SLICES; slice++) {
    #pragma omp target teams distribute parallel for firstprivate(slice)
    for (int v = 0; v < VOLS; v++) {
      double gx = grid.originx + (v % 32) * grid.spacing;
      double gy = grid.originx + (v / 32) * grid.spacing;
      double gz = slice * grid.zscale;
      double e = 0.0;
      for (int a = 0; a < NATOMS; a++) {
        double dx = gx - atomx[a];
        double dy = gy - atomy[a];
        e += atomq[a] / (dx * dx + dy * dy + gz * gz + 1.0);
      }
      energy[v] = e;
    }
    #pragma omp target teams distribute parallel for
    for (int v = 0; v < VOLS; v++) {
      potential[v] += energy[v];
    }
  }
  #pragma omp target exit data map(from: potential) map(delete: energy) map(release: grid, atomx, atomy, atomq)
  double total = 0.0;
  for (int v = 0; v < VOLS; v++) {
    total += potential[v];
  }
  printf("potential %.6f\n", total);
  return 0;
}
