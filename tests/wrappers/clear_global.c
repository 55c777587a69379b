#include <string.h>
#define N 16
double a[N];
void clear(void) { memset(a, 0, N * sizeof(double)); }
int main() {
  for (int i = 0; i < N; i++) a[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] += 1.0;
  clear();
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] += 1.0;
  printf("%f\n", a[0]);
  return 0;
}
