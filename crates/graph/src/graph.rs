//! The static dataflow graph and its rewriting utilities.

use crate::error::GraphError;
use crate::op::Op;
use ranger_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the raw index of this node id.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single operator instance in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id (equal to its position in the graph's node list).
    pub id: NodeId,
    /// Human-readable, unique name (TensorFlow-style, e.g. `conv1/Relu`).
    pub name: String,
    /// The operator this node applies.
    pub op: Op,
    /// Ids of the nodes whose outputs feed this node, in operator-defined order.
    pub inputs: Vec<NodeId>,
    /// Constant value (present only for [`Op::Const`] and [`Op::Input`] defaults).
    pub value: Option<Tensor>,
    /// Whether this constant participates in gradient-based training.
    pub trainable: bool,
}

/// A static dataflow graph: an append-ordered list of operator nodes.
///
/// Nodes are stored in insertion order, which is also a valid construction order for the
/// original (pre-rewrite) graph. Execution always re-derives a topological order, so
/// rewrites that append nodes (as Ranger's transformation does) stay valid.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    nodes: Vec<Node>,
    names: HashMap<String, NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node and returns its id.
    ///
    /// If the name is already taken a unique suffix is appended, mirroring TensorFlow's
    /// name-uniquing behaviour.
    pub fn add_node(&mut self, name: impl Into<String>, op: Op, inputs: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        let mut name = name.into();
        if self.names.contains_key(&name) {
            let mut suffix = 1usize;
            while self.names.contains_key(&format!("{name}_{suffix}")) {
                suffix += 1;
            }
            name = format!("{name}_{suffix}");
        }
        self.names.insert(name.clone(), id);
        self.nodes.push(Node {
            id,
            name,
            op,
            inputs,
            value: None,
            trainable: false,
        });
        id
    }

    /// Adds a graph input placeholder.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, Op::Input, Vec::new())
    }

    /// Adds a constant node holding `value`; `trainable` marks it as a parameter.
    pub fn add_const(&mut self, name: impl Into<String>, value: Tensor, trainable: bool) -> NodeId {
        let id = self.add_node(name, Op::Const, Vec::new());
        let node = &mut self.nodes[id.0];
        node.value = Some(value);
        node.trainable = trainable;
        id
    }

    /// Returns the node with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the id is not present.
    pub fn node(&self, id: NodeId) -> Result<&Node, GraphError> {
        self.nodes.get(id.0).ok_or(GraphError::UnknownNode(id))
    }

    /// Returns a mutable reference to the node with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the id is not present.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, GraphError> {
        self.nodes.get_mut(id.0).ok_or(GraphError::UnknownNode(id))
    }

    /// Returns all nodes in insertion order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Returns the number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks a node up by name.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownName`] if no node has that name.
    pub fn by_name(&self, name: &str) -> Result<NodeId, GraphError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| GraphError::UnknownName(name.to_string()))
    }

    /// Returns the ids of all trainable constant nodes (the model parameters).
    pub fn trainable_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.trainable && n.op.is_const())
            .map(|n| n.id)
            .collect()
    }

    /// Returns the total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.trainable)
            .filter_map(|n| n.value.as_ref())
            .map(|t| t.len())
            .sum()
    }

    /// Returns the ids of the nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// Returns a topological ordering of the node ids.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle.
    pub fn topological_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut in_degree = vec![0usize; n];
        for node in &self.nodes {
            for input in &node.inputs {
                if input.0 >= n {
                    return Err(GraphError::UnknownNode(*input));
                }
            }
            in_degree[node.id.0] = node.inputs.len();
        }
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for node in &self.nodes {
            for input in &node.inputs {
                consumers[input.0].push(node.id.0);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(NodeId(i));
            for &c in &consumers[i] {
                in_degree[c] -= 1;
                if in_degree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::CyclicGraph)
        }
    }

    /// Inserts a new node that consumes `after`'s output and rewires every existing
    /// consumer of `after` to read from the new node instead.
    ///
    /// This is the rewrite primitive Ranger's Algorithm 1 is built on: inserting a
    /// [`Op::Clamp`] after an activation makes every downstream operator observe the
    /// restricted values. The equivalent in the paper's TensorFlow implementation is graph
    /// duplication with an `input_map` that substitutes the bounded operator.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `after` does not exist.
    pub fn insert_after(
        &mut self,
        after: NodeId,
        name: impl Into<String>,
        op: Op,
    ) -> Result<NodeId, GraphError> {
        if after.0 >= self.nodes.len() {
            return Err(GraphError::UnknownNode(after));
        }
        let consumers = self.consumers(after);
        let new_id = self.add_node(name, op, vec![after]);
        for consumer in consumers {
            let node = &mut self.nodes[consumer.0];
            for input in &mut node.inputs {
                if *input == after {
                    *input = new_id;
                }
            }
        }
        Ok(new_id)
    }

    /// Replaces occurrences of `from` in `node`'s input list with `to`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if any id does not exist.
    pub fn rewire_input(
        &mut self,
        node: NodeId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), GraphError> {
        if to.0 >= self.nodes.len() {
            return Err(GraphError::UnknownNode(to));
        }
        let n = self.node_mut(node)?;
        for input in &mut n.inputs {
            if *input == from {
                *input = to;
            }
        }
        Ok(())
    }

    /// Returns the ids of operator nodes (everything except inputs and constants) in
    /// topological order. This is the operator list Algorithm 1 traverses and the
    /// population the fault injector samples from.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle.
    pub fn operator_nodes(&self) -> Result<Vec<NodeId>, GraphError> {
        Ok(self
            .topological_order()?
            .into_iter()
            .filter(|id| self.nodes[id.0].op.is_injectable())
            .collect())
    }

    /// Counts nodes whose operator is a [`Op::Clamp`] (useful for overhead accounting and
    /// for asserting transformation effects in tests).
    pub fn clamp_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Clamp { .. }))
            .count()
    }

    /// Counts all range-restriction operators, regardless of out-of-bounds policy:
    /// [`Op::Clamp`] plus [`Op::RangeRestore`] (the Section VI-C design alternatives).
    pub fn restriction_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Clamp { .. } | Op::RangeRestore { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Padding;

    fn tiny_graph() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const("w", Tensor::ones(vec![2, 2]), true);
        let mm = g.add_node("matmul", Op::MatMul, vec![x, w]);
        let relu = g.add_node("relu", Op::Relu, vec![mm]);
        (g, x, mm, relu)
    }

    #[test]
    fn node_lookup_by_name_and_id() {
        let (g, x, mm, _) = tiny_graph();
        assert_eq!(g.by_name("x").unwrap(), x);
        assert_eq!(g.by_name("matmul").unwrap(), mm);
        assert!(g.by_name("nope").is_err());
        assert!(g.node(NodeId::new(99)).is_err());
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn duplicate_names_are_uniqued() {
        let mut g = Graph::new();
        let a = g.add_input("x");
        let b = g.add_input("x");
        assert_ne!(g.node(a).unwrap().name, g.node(b).unwrap().name);
        assert_eq!(g.by_name("x").unwrap(), a);
        assert_eq!(g.by_name("x_1").unwrap(), b);
    }

    #[test]
    fn trainable_and_parameter_count() {
        let (g, ..) = tiny_graph();
        assert_eq!(g.trainable_nodes().len(), 1);
        assert_eq!(g.parameter_count(), 4);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let (g, ..) = tiny_graph();
        let order = g.topological_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for node in g.nodes() {
            for input in &node.inputs {
                assert!(pos[input] < pos[&node.id]);
            }
        }
    }

    #[test]
    fn cycle_detection() {
        let (mut g, x, _, relu) = tiny_graph();
        // Manually create a cycle: make the matmul read from the relu.
        let mm = g.by_name("matmul").unwrap();
        g.rewire_input(mm, x, relu).unwrap();
        assert_eq!(g.topological_order(), Err(GraphError::CyclicGraph));
    }

    #[test]
    fn insert_after_rewires_consumers() {
        let (mut g, _, mm, relu) = tiny_graph();
        let clamp = g
            .insert_after(mm, "ranger/clamp", Op::Clamp { lo: 0.0, hi: 5.0 })
            .unwrap();
        // The relu must now consume the clamp, and the clamp must consume the matmul.
        assert_eq!(g.node(relu).unwrap().inputs, vec![clamp]);
        assert_eq!(g.node(clamp).unwrap().inputs, vec![mm]);
        assert_eq!(g.clamp_count(), 1);
    }

    #[test]
    fn consumers_lists_direct_readers() {
        let (g, _, mm, relu) = tiny_graph();
        assert_eq!(g.consumers(mm), vec![relu]);
        assert!(g.consumers(relu).is_empty());
    }

    #[test]
    fn operator_nodes_excludes_inputs_and_consts() {
        let (g, ..) = tiny_graph();
        let ops = g.operator_nodes().unwrap();
        assert_eq!(ops.len(), 2);
        for id in ops {
            assert!(g.node(id).unwrap().op.is_injectable());
        }
    }

    #[test]
    fn insert_after_unknown_node_errors() {
        let (mut g, ..) = tiny_graph();
        assert!(g.insert_after(NodeId::new(42), "c", Op::Identity).is_err());
    }

    #[test]
    fn conv_padding_attributes_survive_clone() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let w = g.add_const("w", Tensor::ones(vec![1, 1, 3, 3]), true);
        g.add_node(
            "conv",
            Op::Conv2d {
                stride: 2,
                padding: Padding::Same,
            },
            vec![x, w],
        );
        let g2 = g.clone();
        assert_eq!(g, g2);
    }
}
