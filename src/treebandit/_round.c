/* The bandit round of treebandit.engine.Simulation, for trees whose every
 * non-leaf is an EpsilonExp3 or an Exp3Baseline, one block of rows per call.
 *
 * It computes the Python route's floats: each node draws from its own PCG64
 * through numpy's bitgen_t (the doubles Generator.random() returns), every
 * sum adds left to right, max keeps the first of equal scores, exp is
 * libm's (math.exp), and each expression is written in the Python order.
 * Build with -ffp-contract=off, so that no multiply-add is fused.
 *
 * Per node (by id): first[n]..first[n+1]-1 are its child slots (none for a
 * leaf), kind[n] is EPS or EXP3, param[4n..4n+3] its eta, floor, scale and
 * mix, and gen[n] its bit generator. Per slot: the child's id, score and
 * softmax entry. drawn[n] is 2 * child + (1 in uniform mode) for the latest
 * draw of node n. totals is the ledger: the algorithm's cost, then each
 * leaf's, committed only when the whole block has run.
 */
#include <math.h>
#include <stdint.h>

typedef struct bitgen { /* numpy/random/bitgen.h */
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum { EPS = 1, EXP3 = 2 };

static double next_double(bitgen_t *g) { return g->next_double(g->state); }

/* stable_softmax(theta, eta) */
static void softmax(const double *theta, double *soft, int k, double eta)
{
    double m = theta[0], s = 0.0;
    for (int j = 1; j < k; j++)
        if (theta[j] > m)
            m = theta[j];
    for (int j = 0; j < k; j++) {
        soft[j] = exp(eta * (theta[j] - m));
        s += soft[j];
    }
    for (int j = 0; j < k; j++)
        soft[j] = soft[j] / s;
}

/* EpsilonExp3.select and _SoftmaxPolicy.select: the child position, with
 * *uniform set in EpsilonExp3's mode U */
static int select_child(int kind, const double *param, const double *soft, int k,
                        bitgen_t *g, int *uniform)
{
    double u, acc = 0.0;
    *uniform = 0;
    if (kind == EPS) {
        if (next_double(g) < param[3]) {
            *uniform = 1;
            return (int)(next_double(g) * k);
        }
        u = next_double(g);
        for (int j = 0; j < k; j++) {
            acc += soft[j];
            if (u < acc)
                return j;
        }
        return k - 1;
    }
    u = next_double(g);
    for (int j = 0; j < k; j++) {
        acc += param[1] + param[2] * soft[j];
        if (u < acc)
            return j;
    }
    return k - 1;
}

/* Runs `rows` rounds on costs[rows][n_leaves]. Returns -1, or the node
 * whose update raises in Python; fault then holds that update's cost and
 * receive probability, and every node before it on the path is updated. */
int run_block(int rows, int n_leaves, const double *costs, const int *kind,
              const int *first, const int *kids, const int *leaf_pos,
              const double *param, bitgen_t *const *gen, double *theta,
              double *soft, int *drawn, double *totals, double prob_floor,
              double *fault)
{
    double alg = totals[0];
    for (int i = 0; i < rows; i++) {
        int node = 0;
        while (first[node + 1] > first[node]) {
            int k = first[node + 1] - first[node], uniform;
            int c = select_child(kind[node], param + 4 * node, soft + first[node], k,
                                 gen[node], &uniform);
            drawn[node] = 2 * c + uniform;
            node = kids[first[node] + c];
        }
        double cost = costs[(long)i * n_leaves + leaf_pos[node]];
        alg += cost;
        if (cost == 0.0)
            continue;
        double v = 1.0;
        node = 0;
        while (first[node + 1] > first[node]) {
            int k = first[node + 1] - first[node];
            int c = drawn[node] / 2, slot = first[node] + c;
            const double *p4 = param + 4 * node;
            double v_node = v, p = p4[1] + p4[2] * soft[slot], dec;
            v = v * p;
            fault[0] = cost;
            fault[1] = v_node;
            if (kind[node] == EPS) { /* EpsilonExp3.update */
                if (!(v_node > 0.0)) /* PolicyError */
                    return node;
                if (drawn[node] % 2) {
                    dec = cost * k / v_node;
                } else {
                    double e = soft[slot];
                    if (e < prob_floor || v_node * e == 0.0) /* NumericalError, ZeroDivisionError */
                        return node;
                    dec = cost / (v_node * e);
                }
            } else { /* Exp3Baseline.update */
                if (p < prob_floor) /* NumericalError */
                    return node;
                dec = cost / p;
            }
            theta[slot] -= dec;
            softmax(theta + first[node], soft + first[node], k, p4[0]);
            node = kids[slot];
        }
    }
    totals[0] = alg;
    for (int i = 0; i < rows; i++)
        for (int j = 0; j < n_leaves; j++)
            totals[1 + j] += costs[(long)i * n_leaves + j];
    return -1;
}
