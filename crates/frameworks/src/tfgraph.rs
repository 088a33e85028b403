//! A TensorFlow-style static dataflow graph with op-granularity execution.
//!
//! The defining performance property reproduced here is *kernel
//! granularity*: every op materializes its output as a fresh tensor and
//! runs as its own kernel through the `Exec` layer (one launch per op on
//! the GPU), and the backward pass is another sequence of per-op kernels —
//! no fusion, no in-place updates. Semantically the forward/backward math
//! is exact, so the statistical behaviour matches our own MLP task; only
//! the execution profile differs.

use sgd_linalg::{Exec, Matrix, Scalar};

/// A node identifier within a [`Graph`].
pub type NodeId = usize;

/// Dataflow operations (the subset TensorFlow 0.12 needs for the paper's
/// fully-connected MLPs).
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// The fed batch of examples.
    Input,
    /// Trainable parameter (index into the session's parameter list).
    /// Biases are `1 x k` matrices broadcast by `BiasAdd`.
    Param(usize),
    /// Dense matrix product of two nodes.
    MatMul(NodeId, NodeId),
    /// Adds a `1 x k` bias row to every row of a matrix.
    BiasAdd(NodeId, NodeId),
    /// Element-wise tanh (the hidden activation of the study's MLPs).
    Tanh(NodeId),
    /// Fused softmax + cross-entropy against the fed class labels; output
    /// is a `1 x 1` matrix holding the mean loss.
    SoftmaxXent(NodeId),
}

/// A static computation graph in topological order.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    ops: Vec<Op>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Appends an op, returning its node id.
    ///
    /// # Panics
    /// Panics if an operand id does not precede the new node (the graph
    /// must be built in topological order).
    pub fn add(&mut self, op: Op) -> NodeId {
        let id = self.ops.len();
        let check = |&o: &NodeId| assert!(o < id, "operand {o} does not precede node {id}");
        match &op {
            Op::MatMul(a, b) | Op::BiasAdd(a, b) => {
                check(a);
                check(b);
            }
            Op::Tanh(a) | Op::SoftmaxXent(a) => check(a),
            Op::Input | Op::Param(_) => {}
        }
        self.ops.push(op);
        id
    }

    /// The ops in topological order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Builds the paper's MLP graph for the given layer widths. Returns
    /// `(graph, loss node, parameter shapes)` where parameters alternate
    /// weight matrices and `1 x k` bias rows per layer.
    pub fn mlp(layers: &[usize]) -> (Graph, NodeId, Vec<(usize, usize)>) {
        assert!(layers.len() >= 2, "an MLP needs input and output layers");
        let mut g = Graph::new();
        let mut shapes = Vec::new();
        let mut cur = g.add(Op::Input);
        for l in 0..layers.len() - 1 {
            let w = g.add(Op::Param(shapes.len()));
            shapes.push((layers[l], layers[l + 1]));
            let b = g.add(Op::Param(shapes.len()));
            shapes.push((1, layers[l + 1]));
            let mm = g.add(Op::MatMul(cur, w));
            let z = g.add(Op::BiasAdd(mm, b));
            cur = if l + 1 < layers.len() - 1 { g.add(Op::Tanh(z)) } else { z };
        }
        let loss = g.add(Op::SoftmaxXent(cur));
        (g, loss, shapes)
    }
}

/// An execution session holding the parameter tensors (TF variables).
pub struct Session {
    graph: Graph,
    params: Vec<Matrix>,
}

impl Session {
    /// Creates a session with initial parameter values.
    pub fn new(graph: Graph, params: Vec<Matrix>) -> Self {
        Session { graph, params }
    }

    /// Read access to the parameters.
    pub fn params(&self) -> &[Matrix] {
        &self.params
    }

    /// Forward pass: evaluates every node, materializing each output (the
    /// op-per-kernel execution profile). Returns all node values.
    /// `classes` are the target labels consumed by `SoftmaxXent`; that
    /// node's value is the mean loss (1x1) and its *delta* (softmax -
    /// onehot, scaled) is stashed in `deltas` for the backward pass.
    fn forward<E: Exec>(
        &self,
        e: &mut E,
        input: &Matrix,
        classes: &[usize],
    ) -> (Vec<Matrix>, Vec<Option<Matrix>>) {
        let mut values: Vec<Matrix> = Vec::with_capacity(self.graph.ops.len());
        let mut xent_delta: Vec<Option<Matrix>> = vec![None; self.graph.ops.len()];
        for (id, op) in self.graph.ops.iter().enumerate() {
            let out = match op {
                Op::Input => input.clone(),
                Op::Param(p) => self.params[*p].clone(),
                Op::MatMul(a, b) => {
                    let (va, vb) = (&values[*a], &values[*b]);
                    let mut c = Matrix::zeros(va.rows(), vb.cols());
                    e.gemm(va, vb, &mut c);
                    c
                }
                Op::BiasAdd(a, b) => {
                    let mut c = values[*a].clone();
                    e.add_row_bias(&mut c, values[*b].row(0));
                    c
                }
                Op::Tanh(a) => {
                    let mut c = values[*a].clone();
                    e.map(c.as_mut_slice(), 4.0, |v| v.tanh());
                    c
                }
                Op::SoftmaxXent(a) => {
                    let mut delta = values[*a].clone();
                    let loss = e.softmax_xent(&mut delta, classes);
                    xent_delta[id] = Some(delta);
                    Matrix::from_vec(1, 1, vec![loss])
                }
            };
            values.push(out);
        }
        (values, xent_delta)
    }

    /// Computes the mean loss for a fed batch.
    pub fn loss<E: Exec>(&self, e: &mut E, input: &Matrix, classes: &[usize]) -> Scalar {
        let loss_node = self.loss_node();
        let (values, _) = self.forward(e, input, classes);
        values[loss_node].at(0, 0)
    }

    /// Reverse-mode sweep: returns the gradient of the loss with respect
    /// to every parameter, as a parallel `Vec<Matrix>`. Each backward op
    /// is again a separate kernel with a materialized output.
    pub fn gradients<E: Exec>(&self, e: &mut E, input: &Matrix, classes: &[usize]) -> Vec<Matrix> {
        let (values, xent_delta) = self.forward(e, input, classes);
        let n = self.graph.ops.len();
        let mut adjoint: Vec<Option<Matrix>> = vec![None; n];
        let mut grads: Vec<Matrix> =
            self.params.iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();

        for id in (0..n).rev() {
            match &self.graph.ops[id] {
                Op::SoftmaxXent(a) => {
                    // d loss / d logits was produced by the fused kernel.
                    let delta = xent_delta[id].clone().expect("forward stashed the delta");
                    accumulate(e, &mut adjoint[*a], delta);
                }
                Op::Tanh(a) => {
                    if let Some(up) = adjoint[id].clone() {
                        let s = &values[id];
                        let mut d = Matrix::zeros(up.rows(), up.cols());
                        e.zip(up.as_slice(), s.as_slice(), d.as_mut_slice(), 3.0, |u, sv| {
                            u * (1.0 - sv * sv)
                        });
                        accumulate(e, &mut adjoint[*a], d);
                    }
                }
                Op::BiasAdd(a, b) => {
                    if let Some(up) = adjoint[id].clone() {
                        let mut db = Matrix::zeros(1, up.cols());
                        e.col_sums(&up, db.row_mut(0));
                        accumulate(e, &mut adjoint[*b], db);
                        accumulate(e, &mut adjoint[*a], up);
                    }
                }
                Op::MatMul(a, b) => {
                    if let Some(up) = adjoint[id].clone() {
                        let (va, vb) = (&values[*a], &values[*b]);
                        let mut da = Matrix::zeros(va.rows(), va.cols());
                        e.gemm_nt(&up, vb, &mut da);
                        accumulate(e, &mut adjoint[*a], da);
                        let mut db = Matrix::zeros(vb.rows(), vb.cols());
                        e.gemm_tn(va, &up, &mut db);
                        accumulate(e, &mut adjoint[*b], db);
                    }
                }
                Op::Param(p) => {
                    if let Some(d) = adjoint[id].take() {
                        grads[*p] = d;
                    }
                }
                Op::Input => {}
            }
        }
        grads
    }

    /// One gradient-descent step: `param -= alpha * grad`, one axpy kernel
    /// per parameter tensor (TF's `GradientDescentOptimizer` profile).
    pub fn apply_gradients<E: Exec>(&mut self, e: &mut E, grads: &[Matrix], alpha: Scalar) {
        assert_eq!(grads.len(), self.params.len(), "one gradient per parameter");
        for (p, g) in self.params.iter_mut().zip(grads) {
            e.axpy(-alpha, g.as_slice(), p.as_mut_slice());
        }
    }

    fn loss_node(&self) -> NodeId {
        self.graph
            .ops
            .iter()
            .rposition(|op| matches!(op, Op::SoftmaxXent(_)))
            .expect("graph has a loss node")
    }
}

fn accumulate<E: Exec>(e: &mut E, slot: &mut Option<Matrix>, delta: Matrix) {
    match slot {
        None => *slot = Some(delta),
        Some(acc) => {
            let d = delta;
            e.axpy(1.0, d.as_slice(), acc.as_mut_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_linalg::CpuExec;
    use sgd_models::{Batch, Examples, MlpTask, Task};

    fn toy() -> (Matrix, Vec<Scalar>, Vec<usize>) {
        let x = Matrix::from_rows(&[
            &[0.5, -1.0, 0.25],
            &[1.0, 0.5, -0.75],
            &[-0.2, 0.1, 0.9],
            &[0.0, 0.3, 0.4],
        ]);
        let y = vec![1.0, -1.0, 1.0, -1.0];
        let classes = y.iter().map(|&l| usize::from(l > 0.0)).collect();
        (x, y, classes)
    }

    /// Builds a session whose parameters equal an `MlpTask` flat model.
    fn session_from_task(task: &MlpTask, w: &[Scalar]) -> Session {
        let (graph, _, shapes) = Graph::mlp(task.layers());
        let mut params = Vec::new();
        let mut off = 0;
        for &(r, c) in &shapes {
            params.push(Matrix::from_vec(r, c, w[off..off + r * c].to_vec()));
            off += r * c;
        }
        assert_eq!(off, w.len());
        Session::new(graph, params)
    }

    #[test]
    fn graph_builder_is_topological() {
        let (g, loss, shapes) = Graph::mlp(&[3, 4, 2]);
        assert_eq!(shapes, vec![(3, 4), (1, 4), (4, 2), (1, 2)]);
        assert!(matches!(g.ops()[loss], Op::SoftmaxXent(_)));
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_references_rejected() {
        let mut g = Graph::new();
        g.add(Op::Tanh(5));
    }

    #[test]
    fn loss_matches_mlp_task() {
        let (x, y, classes) = toy();
        let task = MlpTask::new(vec![3, 4, 2], 9);
        let w = task.init_model();
        // Note: MlpTask packs [W, b] per layer in the same order as
        // Graph::mlp's parameter shapes, so the flat layouts agree.
        let sess = session_from_task(&task, &w);
        let mut e = CpuExec::seq();
        let tf_loss = sess.loss(&mut e, &x, &classes);
        let our_loss = task.loss(&mut e, &Batch::new(Examples::Dense(&x), &y), &w);
        assert!((tf_loss - our_loss).abs() < 1e-12, "{tf_loss} vs {our_loss}");
    }

    #[test]
    fn gradients_match_mlp_task() {
        let (x, y, classes) = toy();
        let task = MlpTask::new(vec![3, 5, 2], 4);
        let w = task.init_model();
        let sess = session_from_task(&task, &w);
        let mut e = CpuExec::seq();
        let tf_grads = sess.gradients(&mut e, &x, &classes);
        let mut ours = vec![0.0; task.dim()];
        task.gradient(&mut e, &Batch::new(Examples::Dense(&x), &y), &w, &mut ours);
        let flat: Vec<Scalar> = tf_grads.iter().flat_map(|m| m.as_slice().to_vec()).collect();
        assert_eq!(flat.len(), ours.len());
        assert!(sgd_linalg::approx_eq_slice(&flat, &ours, 1e-10));
    }

    #[test]
    fn deeper_net_gradients_match() {
        let (x, y, classes) = toy();
        let task = MlpTask::new(vec![3, 6, 4, 2], 17);
        let mut w = task.init_model();
        for (i, v) in w.iter_mut().enumerate() {
            *v += 0.01 * ((i % 5) as Scalar - 2.0);
        }
        let sess = session_from_task(&task, &w);
        let mut e = CpuExec::seq();
        let tf_grads = sess.gradients(&mut e, &x, &classes);
        let mut ours = vec![0.0; task.dim()];
        task.gradient(&mut e, &Batch::new(Examples::Dense(&x), &y), &w, &mut ours);
        let flat: Vec<Scalar> = tf_grads.iter().flat_map(|m| m.as_slice().to_vec()).collect();
        assert!(sgd_linalg::approx_eq_slice(&flat, &ours, 1e-10));
    }

    #[test]
    fn training_step_descends() {
        let (x, _, classes) = toy();
        let task = MlpTask::new(vec![3, 4, 2], 2);
        let mut sess = session_from_task(&task, &task.init_model());
        let mut e = CpuExec::seq();
        let l0 = sess.loss(&mut e, &x, &classes);
        for _ in 0..100 {
            let g = sess.gradients(&mut e, &x, &classes);
            sess.apply_gradients(&mut e, &g, 1.0);
        }
        let l1 = sess.loss(&mut e, &x, &classes);
        assert!(l1 < l0 * 0.7, "{l0} -> {l1}");
    }

    #[test]
    fn op_granularity_launches_many_gpu_kernels() {
        let (x, _, classes) = toy();
        let task = MlpTask::new(vec![3, 4, 2], 2);
        let sess = session_from_task(&task, &task.init_model());
        let mut dev = sgd_gpusim::GpuDevice::tesla_k80();
        let mut e = sgd_gpusim::kernels::GpuExec::new(&mut dev);
        let _ = sess.gradients(&mut e, &x, &classes);
        // forward: matmul+bias+tanh+matmul+bias+softmax = 6; backward
        // adds matmul grads (2 each), bias col-sums, tanh zip: >= 12.
        assert!(dev.stats().kernels_launched >= 12, "{}", dev.stats().kernels_launched);
    }
}
