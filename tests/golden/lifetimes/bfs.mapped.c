/* bfs (Rodinia) — traverses all the connected components in a graph.
 * Level-synchronous frontier expansion: one kernel expands the frontier,
 * one rotates the masks, and the host checks the termination flag each
 * level. Unoptimized variant: the edge lists ride along on every launch. */
#define NN 256
#define DEG 4
#define LEVELS 8

int edges[NN * DEG];
int frontier[NN];
int next[NN];
int cost[NN];
int changed[1];

int main() {
  for (int i = 0; i < NN; i++) {
    edges[i * DEG] = (i + 1) % NN;
    edges[i * DEG + 1] = (i + 7) % NN;
    edges[i * DEG + 2] = (i + 31) % NN;
    edges[i * DEG + 3] = (i * 3 + 5) % NN;
    frontier[i] = 0;
    next[i] = 0;
    cost[i] = 0 - 1;
  }
  frontier[0] = 1;
  cost[0] = 0;
  int reached = 1;
  #pragma omp target enter data map(to: frontier, edges, cost, next) map(alloc: changed)
  for (int lvl = 0; lvl < LEVELS; lvl++) {
    changed[0] = 0;
    #pragma omp target update to(changed)
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NN; i++) {
      if (frontier[i]) {
        for (int k = 0; k < DEG; k++) {
          int j = edges[i * DEG + k];
          if (cost[j] < 0) {
            cost[j] = cost[i] + 1;
            next[j] = 1;
            changed[0] = 1;
          }
        }
      }
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NN; i++) {
      frontier[i] = next[i];
      next[i] = 0;
    }
    #pragma omp target update from(changed)
    if (changed[0]) {
      reached = reached + 1;
    }
  }
  #pragma omp target exit data map(from: cost) map(delete: changed) map(release: frontier, edges, next)
  int total = 0;
  for (int i = 0; i < NN; i++) {
    total += cost[i];
  }
  printf("levels %d cost %d\n", reached, total);
  return 0;
}
