#define N 16
void clear(double *p);
int main() {
  double a[N];
  for (int i = 0; i < N; i++) a[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] += 1.0;
  clear(a);
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] += 1.0;
  printf("%f\n", a[0]);
  return 0;
}
