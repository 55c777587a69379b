/* backprop (Rodinia) — trains the weights of connecting nodes on a neural
 * network layer. Two kernels per epoch (forward pass, weight update) with
 * a host error computation between them. Unoptimized variant: the weight
 * matrix bounces between host and device twice per epoch. */
#define NIN 512
#define NHID 64
#define EPOCHS 8

double input[NIN];
double w[NIN * NHID];
double hidden[NHID];
double target[NHID];
double delta[NHID];

int main() {
  double momentum = 0.7;
  double decay = 0.999;
  for (int i = 0; i < NIN; i++) {
    input[i] = ((i * 11) % 23) * 0.02;
  }
  for (int j = 0; j < NHID; j++) {
    target[j] = ((j * 5) % 13) * 0.1;
  }
  for (int i = 0; i < NIN * NHID; i++) {
    w[i] = ((i * 17) % 31) * 0.001;
  }
  #pragma omp target enter data map(to: input, w) map(alloc: hidden, delta)
  for (int e = 0; e < EPOCHS; e++) {
    #pragma omp target teams distribute parallel for
    for (int j = 0; j < NHID; j++) {
      double s = 0.0;
      for (int i = 0; i < NIN; i++) {
        s += input[i] * w[i * NHID + j];
      }
      hidden[j] = s / (1.0 + s * s);
    }
    #pragma omp target update from(hidden)
    for (int j = 0; j < NHID; j++) {
      delta[j] = (target[j] - hidden[j]) * 0.3;
    }
    #pragma omp target update to(delta)
    #pragma omp target teams distribute parallel for firstprivate(decay, momentum) collapse(2)
    for (int j = 0; j < NHID; j++) {
      for (int i = 0; i < NIN; i++) {
        w[i * NHID + j] = w[i * NHID + j] * decay + input[i] * delta[j] * momentum;
      }
    }
  }
  #pragma omp target exit data map(from: w) map(delete: hidden, delta) map(release: input)
  double werr = 0.0;
  for (int j = 0; j < NHID; j++) {
    werr += (target[j] - hidden[j]) * (target[j] - hidden[j]);
  }
  printf("err %.6f w0 %.6f\n", werr, w[NHID + 1]);
  return 0;
}
