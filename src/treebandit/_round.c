/* The rounds of treebandit.engine.Simulation, one block of rows per call:
 * run_block, the bandit round of trees whose every non-leaf is an
 * EpsilonExp3 or an Exp3Baseline, and run_onehop, the one-hop round of trees
 * whose every non-leaf is a NormalizedEG.
 *
 * They compute the Python route's floats: each node draws from its own PCG64
 * through numpy's bitgen_t (the doubles Generator.random() returns), every
 * sum adds left to right, max keeps the first of equal scores, exp is
 * libm's (math.exp), each expression is written in the Python order, and
 * one loop, select_child's, scans every softmax, as _SoftmaxPolicy._scan does.
 * Build with -ffp-contract=off, so that no multiply-add is fused.
 *
 * Per node (by id): first[n]..first[n+1]-1 are its child slots (none for a
 * leaf), kind[n] is EPS, EXP3 or EG, param[4n..4n+3] its eta, floor, scale
 * and mix, and gen[n] its bit generator. Per slot: the child's id, score and
 * softmax entry. drawn[n] is select_child's code for the latest draw of
 * node n. totals is the ledger: the algorithm's cost, then each leaf's,
 * committed only when the whole block has run.
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

enum { EPS = 1, EXP3 = 2, EG = 3 };

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

/* _SoftmaxPolicy.select and EpsilonExp3.select: the draw code 2 * child +
 * (1 in EpsilonExp3's mode U). One inverse-CDF scan of floor + scale * soft,
 * at the node's floor and scale, or at 0 and 1 for EpsilonExp3's mode E. */
static int select_child(int kind, const double *param, const double *soft, int k,
                        bitgen_t *g)
{
    if (kind == EPS && next_double(g) < param[3])
        return 2 * (int)(next_double(g) * k) + 1;
    double u = next_double(g), acc = 0.0;
    double floor = kind == EPS ? 0.0 : param[1], scale = kind == EPS ? 1.0 : param[2];
    for (int j = 0; j < k; j++) {
        acc += floor + scale * soft[j];
        if (u < acc)
            return 2 * j;
    }
    return 2 * (k - 1);
}

/* Commits a block to the ledger: the algorithm's new total, then each leaf's
 * costs added round by round, as RegretLedger.record adds them. */
static void commit(int rows, int n_leaves, const double *costs, double alg, double *totals)
{
    totals[0] = alg;
    for (int i = 0; i < rows; i++)
        for (int j = 0; j < n_leaves; j++)
            totals[1 + j] += costs[(long)i * n_leaves + j];
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
            drawn[node] = select_child(kind[node], param + 4 * node, soft + first[node],
                                       first[node + 1] - first[node], gen[node]);
            node = kids[first[node] + drawn[node] / 2];
        }
        double cost = costs[(long)i * n_leaves + leaf_pos[node]];
        alg += cost;
        if (cost == 0.0)
            continue;
        double v = 1.0;
        node = 0;
        while (first[node + 1] > first[node]) {
            int k = first[node + 1] - first[node];
            int slot = first[node] + drawn[node] / 2;
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
                    if (e < prob_floor || v_node * e == 0.0) /* NumericalError */
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
    commit(rows, n_leaves, costs, alg, totals);
    return -1;
}

/* Runs `rows` rounds of one-hop feedback on costs[rows][n_leaves], as
 * _complete_round does. y has a slot per node: the children at their slots,
 * the root at the last. leaf_slots[j] is the slot of leaf column j, order
 * the non-leaves deep-first (the root last) and own[o] the slot of order[o].
 * Returns -1: the block check has already rejected every cost that
 * NormalizedEG.observe_all would. */
int run_onehop(int rows, int n_leaves, const double *costs, const int *kind,
               const int *first, const int *order, const int *own, const int *leaf_slots,
               const double *param, bitgen_t *const *gen, double *theta, double *soft,
               int *drawn, double *totals, double *y)
{
    double alg = totals[0];
    int o, node;
    for (int i = 0; i < rows; i++) {
        for (int j = 0; j < n_leaves; j++)
            y[leaf_slots[j]] = costs[(long)i * n_leaves + j];
        o = 0;
        do { /* each node selects, writing its chosen child's cost at its own slot */
            node = order[o];
            drawn[node] = select_child(kind[node], param + 4 * node, soft + first[node],
                                       first[node + 1] - first[node], gen[node]);
            y[own[o++]] = y[first[node] + drawn[node] / 2];
        } while (node != 0);
        alg += y[own[o - 1]];
        o = 0;
        do { /* NormalizedEG.observe_all */
            node = order[o++];
            for (int s = first[node]; s < first[node + 1]; s++)
                theta[s] -= y[s];
            softmax(theta + first[node], soft + first[node], first[node + 1] - first[node],
                    param[4 * node]);
        } while (node != 0);
    }
    commit(rows, n_leaves, costs, alg, totals);
    return -1;
}
