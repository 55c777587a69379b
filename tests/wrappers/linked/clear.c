#include <string.h>
#define N 16
void clear(double *p) { memset(p, 0, N * sizeof(double)); }
